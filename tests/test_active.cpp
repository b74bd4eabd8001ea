// Unit tests for active: token bucket, prober semantics, scheduler.
#include <gtest/gtest.h>

#include <optional>

#include "active/prober.h"
#include "active/rate_limiter.h"
#include "active/scan_scheduler.h"
#include "host/host.h"
#include "net/packet.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/metrics.h"

namespace svcdisc::active {
namespace {

using host::Firewall;
using host::FirewallMode;
using host::Host;
using host::LifecycleConfig;
using host::LifecycleKind;
using host::Service;
using net::Ipv4;
using net::Prefix;
using util::hours;
using util::kEpoch;
using util::seconds;

// ------------------------------------------------------------ TokenBucket

TEST(TokenBucket, BurstAvailableImmediately) {
  TokenBucket bucket(10.0, 5.0);
  EXPECT_EQ(bucket.next_available(kEpoch), kEpoch);
  for (int i = 0; i < 5; ++i) bucket.consume(kEpoch);
  // Burst exhausted: the sixth token takes 1/10 s to refill.
  const auto next = bucket.next_available(kEpoch);
  EXPECT_NEAR(static_cast<double>((next - kEpoch).usec), 1e5, 1e3);
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket bucket(2.0, 1.0);
  bucket.consume(kEpoch);
  EXPECT_NEAR(bucket.tokens_at(kEpoch + seconds(1)), 1.0, 1e-9);
  // Tokens cap at burst.
  EXPECT_NEAR(bucket.tokens_at(kEpoch + seconds(100)), 1.0, 1e-9);
}

TEST(TokenBucket, RejectsBadConfig) {
  EXPECT_THROW(TokenBucket(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(1.0, 0.5), std::invalid_argument);
}

// ---------------------------------------------------------------- Prober --

struct ProberFixture : ::testing::Test {
  ProberFixture()
      : network(sim, {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16),
                      Prefix(Ipv4::from_octets(10, 1, 0, 0), 24)}) {}

  Host& add_host(Ipv4 addr) {
    const host::HostId id = next_id++;
    hosts.push_back(std::make_unique<Host>(
        id, network, nullptr, addr,
        LifecycleConfig{LifecycleKind::kAlwaysOn, {}, {}, false},
        util::Rng(id)));
    hosts.back()->start();
    return *hosts.back();
  }

  static Service tcp(net::Port port) {
    Service s;
    s.proto = net::Proto::kTcp;
    s.port = port;
    return s;
  }

  ScanSpec spec_for(std::vector<Ipv4> targets) {
    ScanSpec spec;
    spec.targets = std::move(targets);
    spec.tcp_ports = {80, 22};
    spec.probes_per_sec = 100.0;
    return spec;
  }

  sim::Simulator sim;
  sim::Network network;
  std::vector<std::unique_ptr<Host>> hosts;
  host::HostId next_id{1};
  const Ipv4 prober_addr = Ipv4::from_octets(10, 1, 0, 1);
};

TEST_F(ProberFixture, ClassifiesOpenClosedFiltered) {
  Host& open_host = add_host(Ipv4::from_octets(128, 125, 1, 1));
  open_host.add_service(tcp(80));
  Host& firewalled = add_host(Ipv4::from_octets(128, 125, 1, 2));
  firewalled.add_service(tcp(80));
  firewalled.firewall().set_mode(FirewallMode::kBlockProbers);
  firewalled.firewall().add_prober(prober_addr);
  // 128.125.1.3 has no host at all.

  Prober prober(network, {{prober_addr}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec_for({Ipv4::from_octets(128, 125, 1, 1),
                              Ipv4::from_octets(128, 125, 1, 2),
                              Ipv4::from_octets(128, 125, 1, 3)}),
                    [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->outcomes.size(), 6u);
  EXPECT_EQ(record->count(ProbeStatus::kOpen), 1u);    // 1.1:80
  EXPECT_EQ(record->count(ProbeStatus::kClosed), 1u);  // 1.1:22 RST
  EXPECT_EQ(record->count(ProbeStatus::kFiltered), 4u);

  const auto open = record->open_services();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].addr, Ipv4::from_octets(128, 125, 1, 1));
  EXPECT_EQ(open[0].port, 80);
}

TEST_F(ProberFixture, CumulativeTableAndCallback) {
  Host& h = add_host(Ipv4::from_octets(128, 125, 1, 1));
  h.add_service(tcp(80));
  Prober prober(network, {{prober_addr}});
  int discoveries = 0;
  prober.on_discovery = [&](const passive::ServiceKey&, util::TimePoint) {
    ++discoveries;
  };
  prober.start_scan(spec_for({Ipv4::from_octets(128, 125, 1, 1)}));
  sim.run();
  prober.start_scan(spec_for({Ipv4::from_octets(128, 125, 1, 1)}));
  sim.run();
  EXPECT_EQ(prober.scans().size(), 2u);
  EXPECT_EQ(prober.table().size(), 1u);  // discovered once
  EXPECT_EQ(discoveries, 1);
}

TEST_F(ProberFixture, RateLimitPacesScan) {
  for (int i = 0; i < 20; ++i) {
    add_host(Ipv4::from_octets(128, 125, 2, static_cast<std::uint8_t>(i)));
  }
  std::vector<Ipv4> targets;
  for (int i = 0; i < 20; ++i) {
    targets.push_back(Ipv4::from_octets(128, 125, 2,
                                        static_cast<std::uint8_t>(i)));
  }
  ScanSpec spec = spec_for(targets);
  spec.probes_per_sec = 2.0;  // 40 probes -> ~20 s
  Prober prober(network, {{prober_addr}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  const double elapsed_sec =
      static_cast<double>((record->finished - record->started).usec) / 1e6;
  EXPECT_GT(elapsed_sec, 18.0);
  EXPECT_LT(elapsed_sec, 28.0);
}

TEST_F(ProberFixture, SplitsAcrossMachines) {
  for (int i = 0; i < 20; ++i) {
    add_host(Ipv4::from_octets(128, 125, 2, static_cast<std::uint8_t>(i)));
  }
  std::vector<Ipv4> targets;
  for (int i = 0; i < 20; ++i) {
    targets.push_back(Ipv4::from_octets(128, 125, 2,
                                        static_cast<std::uint8_t>(i)));
  }
  ScanSpec spec = spec_for(targets);
  spec.probes_per_sec = 2.0;
  // Two machines should roughly halve the elapsed time.
  Prober prober(network,
                {{prober_addr, Ipv4::from_octets(10, 1, 0, 2)}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  const double elapsed_sec =
      static_cast<double>((record->finished - record->started).usec) / 1e6;
  EXPECT_LT(elapsed_sec, 15.0);
}

TEST_F(ProberFixture, UdpScanStatuses) {
  // Host A: DNS answers generic probes; port 137 closed (ICMP).
  Host& a = add_host(Ipv4::from_octets(128, 125, 3, 1));
  Service dns;
  dns.proto = net::Proto::kUdp;
  dns.port = 53;
  dns.udp_replies_to_generic_probe = true;
  a.add_service(dns);
  // Host B: silent open service on 137 (replies to nothing, no ICMP for
  // the open port), closed 53 -> ICMP, so the host is provably alive.
  Host& b = add_host(Ipv4::from_octets(128, 125, 3, 2));
  Service netbios;
  netbios.proto = net::Proto::kUdp;
  netbios.port = 137;
  netbios.udp_replies_to_generic_probe = false;
  b.add_service(netbios);
  // Address .3 has no host: every probe unanswered -> no-host.

  ScanSpec spec;
  spec.targets = {Ipv4::from_octets(128, 125, 3, 1),
                  Ipv4::from_octets(128, 125, 3, 2),
                  Ipv4::from_octets(128, 125, 3, 3)};
  spec.udp_ports = {53, 137};
  spec.probes_per_sec = 100.0;

  Prober prober(network, {{prober_addr}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->count(ProbeStatus::kOpenUdp), 1u);   // A:53
  EXPECT_EQ(record->count(ProbeStatus::kClosed), 2u);    // A:137, B:53
  EXPECT_EQ(record->count(ProbeStatus::kMaybeOpen), 1u); // B:137
  EXPECT_EQ(record->count(ProbeStatus::kNoHost), 2u);    // .3 both ports
}

TEST_F(ProberFixture, PingAliveHostUpgradesSilentUdpToMaybeOpen) {
  // Regression: a host that proved itself alive *only* through the
  // host-discovery ping (no port probe ever answered: no UDP service, no
  // ICMP port-unreachable) used to classify as kNoHost. §4.5 says
  // "possibly open IF the host proved alive" — and a ping reply is
  // proof.
  Host& h = add_host(Ipv4::from_octets(128, 125, 4, 1));
  h.set_udp_icmp(false);  // closed ports stay silent

  ScanSpec spec;
  spec.targets = {Ipv4::from_octets(128, 125, 4, 1)};
  spec.udp_ports = {137};
  spec.probes_per_sec = 100.0;
  spec.host_discovery = true;

  Prober prober(network, {{prober_addr}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->hosts_alive, 1u);
  ASSERT_EQ(record->outcomes.size(), 1u);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kMaybeOpen);
}

TEST_F(ProberFixture, RejectsConcurrentScans) {
  add_host(Ipv4::from_octets(128, 125, 1, 1));
  Prober prober(network, {{prober_addr}});
  prober.start_scan(spec_for({Ipv4::from_octets(128, 125, 1, 1)}));
  EXPECT_THROW(
      prober.start_scan(spec_for({Ipv4::from_octets(128, 125, 1, 1)})),
      std::logic_error);
  sim.run();
}

TEST_F(ProberFixture, RequiresSourceAddress) {
  EXPECT_THROW(Prober(network, {{}}), std::invalid_argument);
}

TEST_F(ProberFixture, EmptyScanCompletes) {
  Prober prober(network, {{prober_addr}});
  bool completed = false;
  ScanSpec spec;
  spec.tcp_ports = {80};
  prober.start_scan(spec, [&](const ScanRecord&) { completed = true; });
  sim.run();
  EXPECT_TRUE(completed);
  EXPECT_FALSE(prober.scan_in_progress());
}

// ------------------------------------------------ pending-probe semantics --

TEST_F(ProberFixture, RepeatedTargetWhilePendingYieldsOneOutcome) {
  // No host answers: the first probes are still pending when the repeat
  // goes out, so the repeat keeps the first entry and adds no outcome.
  const Ipv4 silent = Ipv4::from_octets(128, 125, 1, 9);
  Prober prober(network, {{prober_addr}});
  util::MetricsRegistry registry;
  prober.attach_metrics(registry, "active");
  std::optional<ScanRecord> record;
  prober.start_scan(spec_for({silent, silent}),
                    [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(registry.counter("active.probes_tcp_sent").value(), 4u);
  ASSERT_EQ(record->outcomes.size(), 2u);
  EXPECT_EQ(record->outcomes[0].key.port, 80);
  EXPECT_EQ(record->outcomes[1].key.port, 22);
  EXPECT_EQ(record->count(ProbeStatus::kFiltered), 2u);
}

TEST_F(ProberFixture, RepeatAfterResolutionGetsAFreshOutcome) {
  // One probe per second against a 2 ms round trip: the first probe has
  // resolved before the repeat is sent, which then counts afresh.
  const Ipv4 addr = Ipv4::from_octets(128, 125, 1, 1);
  add_host(addr).add_service(tcp(80));
  ScanSpec spec = spec_for({addr, addr});
  spec.tcp_ports = {80};
  spec.probes_per_sec = 1.0;
  Prober prober(network, {{prober_addr}});
  int open_responses = 0;
  prober.on_open_response = [&](const passive::ServiceKey&, util::TimePoint,
                                bool) { ++open_responses; };
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 2u);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kOpen);
  EXPECT_EQ(record->outcomes[1].status, ProbeStatus::kOpen);
  EXPECT_LT(record->outcomes[0].when, record->outcomes[1].when);
  EXPECT_EQ(open_responses, 2);
  EXPECT_EQ(prober.table().size(), 1u);
}

TEST_F(ProberFixture, TarpitSynAckAfterTheTimeoutStillResolvesOpen) {
  // A tarpit holds its SYN-ACK for 40 s, far past the 3 s timeout. The
  // scan is still running then (60 targets at one probe per second), so
  // the late answer finds its probe pending and counts as open.
  const Ipv4 tarpit = Ipv4::from_octets(128, 125, 1, 1);
  add_host(tarpit).set_syn_policy(host::SynPolicy::kTarpit,
                                  util::seconds(40));
  std::vector<Ipv4> targets = {tarpit};
  for (int i = 0; i < 59; ++i) {
    targets.push_back(
        Ipv4::from_octets(128, 125, 2, static_cast<std::uint8_t>(i)));
  }
  ScanSpec spec = spec_for(targets);
  spec.tcp_ports = {80};
  spec.probes_per_sec = 1.0;
  Prober prober(network, {{prober_addr}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  const ProbeOutcome& first = record->outcomes.at(0);
  EXPECT_EQ(first.key.addr, tarpit);
  EXPECT_EQ(first.status, ProbeStatus::kOpen);
  EXPECT_GE(first.when - record->started, util::seconds(40));
  EXPECT_GT(util::seconds(40), spec.timeout);
  EXPECT_TRUE(prober.table().contains({tarpit, net::Proto::kTcp, 80}));
}

TEST_F(ProberFixture, OutcomeWhenIsTheResolutionTimeOnceAnswered) {
  // `when` starts as the send time and is overwritten when a response
  // resolves the probe. The tarpit is probed first, at scan start (the
  // token bucket starts full); its SYN arrives 1 ms later, is held 40 s,
  // and the SYN-ACK takes 1 ms back. The silent target's probe leaves a
  // second later (1 probe/s) and, never answered, keeps its send time.
  const Ipv4 tarpit = Ipv4::from_octets(128, 125, 1, 1);
  add_host(tarpit).set_syn_policy(host::SynPolicy::kTarpit,
                                  util::seconds(40));
  std::vector<Ipv4> targets = {tarpit};
  for (int i = 0; i < 59; ++i) {
    targets.push_back(
        Ipv4::from_octets(128, 125, 2, static_cast<std::uint8_t>(i)));
  }
  ScanSpec spec = spec_for(targets);
  spec.tcp_ports = {80};
  spec.probes_per_sec = 1.0;
  Prober prober(network, {{prober_addr}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  const ProbeOutcome& answered = record->outcomes.at(0);
  const ProbeOutcome& silent = record->outcomes.at(1);
  ASSERT_EQ(answered.status, ProbeStatus::kOpen);
  ASSERT_EQ(silent.status, ProbeStatus::kFiltered);
  EXPECT_EQ(answered.when,
            record->started + seconds(40) + util::msec(2));
  EXPECT_EQ(silent.when, record->started + seconds(1));
}

TEST_F(ProberFixture, SecondResponseAfterResolutionIsIgnored) {
  // 1.1:80 answers with a SYN-ACK at 2 ms; a RST and a second SYN-ACK
  // for the same endpoint, a second later and well inside the scan,
  // change nothing.
  const Ipv4 addr = Ipv4::from_octets(128, 125, 1, 1);
  add_host(addr).add_service(tcp(80));
  ScanSpec spec = spec_for({addr});
  spec.tcp_ports = {80};
  Prober prober(network, {{prober_addr}});
  util::MetricsRegistry registry;
  prober.attach_metrics(registry, "active");
  int open_responses = 0;
  prober.on_open_response = [&](const passive::ServiceKey&, util::TimePoint,
                                bool) { ++open_responses; };
  sim.at(kEpoch + seconds(1), [&] {
    network.send(net::make_tcp(addr, 80, prober_addr, 40001,
                               net::flags_rst()));
    network.send(net::make_tcp(addr, 80, prober_addr, 40001,
                               net::flags_syn_ack()));
  });
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 1u);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kOpen);
  EXPECT_LT(record->outcomes[0].when, kEpoch + seconds(1));
  EXPECT_EQ(registry.counter("active.responses_received").value(), 1u);
  EXPECT_EQ(open_responses, 1);
}

TEST_F(ProberFixture, RejectsAScanTooLargeToIndex) {
  // 65,537 targets x 65,536 ports is past the 2^32 - 2 outcome positions
  // the pending index can hold. The scan is refused up front, before
  // anything is reserved, and the prober stays usable.
  const Ipv4 addr = Ipv4::from_octets(128, 125, 1, 1);
  add_host(addr).add_service(tcp(80));
  ScanSpec huge;
  huge.targets.assign(65537, addr);
  huge.tcp_ports.assign(65536, 80);
  Prober prober(network, {{prober_addr}});
  EXPECT_THROW(prober.start_scan(huge), std::length_error);
  EXPECT_FALSE(prober.scan_in_progress());
  prober.start_scan(spec_for({addr}));
  sim.run();
  ASSERT_EQ(prober.scans().size(), 1u);
  EXPECT_EQ(prober.table().size(), 1u);
  EXPECT_EQ(prober.pending_regrowths(), 0u);
}

// -------------------------------------------------------------- Scheduler --

TEST_F(ProberFixture, SchedulerFiresPeriodically) {
  Host& h = add_host(Ipv4::from_octets(128, 125, 1, 1));
  h.add_service(tcp(80));
  Prober prober(network, {{prober_addr}});
  ScheduleConfig schedule;
  schedule.first_scan = kEpoch + hours(1);
  schedule.period = hours(12);
  schedule.count = 4;
  ScanScheduler scheduler(sim, prober,
                          spec_for({Ipv4::from_octets(128, 125, 1, 1)}),
                          schedule);
  int completions = 0;
  scheduler.on_scan_complete = [&](const ScanRecord&) { ++completions; };
  scheduler.arm();
  sim.run_until(kEpoch + hours(48));
  EXPECT_EQ(scheduler.fired(), 4);
  EXPECT_EQ(completions, 4);
  ASSERT_EQ(prober.scans().size(), 4u);
  EXPECT_EQ(prober.scans()[0].started, kEpoch + hours(1));
  EXPECT_EQ(prober.scans()[1].started, kEpoch + hours(13));
}

TEST_F(ProberFixture, SchedulerCannotArmTwice) {
  Prober prober(network, {{prober_addr}});
  ScanScheduler scheduler(sim, prober, spec_for({}), ScheduleConfig{});
  scheduler.arm();
  EXPECT_THROW(scheduler.arm(), std::logic_error);
}

}  // namespace
}  // namespace svcdisc::active
