// End-to-end integration tests: a small campus campaign through the full
// pipeline (hosts -> border taps -> passive monitor; prober -> scans),
// checking the paper's qualitative relationships hold.
#include <gtest/gtest.h>

#include <memory>

#include "core/completeness.h"
#include "core/engine.h"
#include "core/report.h"
#include "core/weighted.h"
#include "workload/campus.h"

namespace svcdisc {
namespace {

using core::DiscoveryEngine;
using core::EngineConfig;
using host::AddressClass;
using net::Ipv4;
using util::hours;
using util::kEpoch;

// One shared campaign for the whole suite (runs once; assertions are
// read-only). Tiny scenario: 2 days, scans every 12 h.
class Campaign : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    campus_ = new workload::Campus(workload::CampusConfig::tiny());
    EngineConfig cfg;
    cfg.scan_count = 4;
    cfg.scan_period = hours(12);
    cfg.scanner_excluded_monitor = true;
    cfg.per_link_monitors = true;
    engine_ = new DiscoveryEngine(*campus_, cfg);
    engine_->run();
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete campus_;
    engine_ = nullptr;
    campus_ = nullptr;
  }

  static workload::Campus* campus_;
  static DiscoveryEngine* engine_;
};

workload::Campus* Campaign::campus_ = nullptr;
DiscoveryEngine* Campaign::engine_ = nullptr;

TEST_F(Campaign, AllScansCompleted) {
  ASSERT_NE(engine_->scheduler(), nullptr);
  EXPECT_EQ(engine_->scheduler()->fired(), 4);
  EXPECT_EQ(engine_->prober().scans().size(), 4u);
  for (const auto& scan : engine_->prober().scans()) {
    EXPECT_GT(scan.finished.usec, scan.started.usec);
    EXPECT_EQ(scan.probes(),
              campus_->scan_targets().size() * campus_->tcp_ports().size());
    EXPECT_EQ(scan.count(active::ProbeStatus::kPending), 0u);
  }
}

TEST_F(Campaign, BothMethodsDiscoverServices) {
  EXPECT_GT(engine_->monitor().table().size(), 10u);
  EXPECT_GT(engine_->prober().table().size(), 50u);
}

TEST_F(Campaign, ActiveFindsMoreServersThanPassive) {
  const auto end = kEpoch + campus_->config().duration;
  const auto passive = core::addresses_found(engine_->monitor().table(), end);
  const auto active = core::addresses_found(engine_->prober().table(), end);
  const auto c = core::completeness(passive, active);
  EXPECT_GT(c.active_total, c.passive_total);
  EXPECT_GT(c.active_pct(), 80.0);
}

TEST_F(Campaign, DiscoveriesAreGenuineServices) {
  // Soundness: every actively discovered (addr, port) corresponds to a
  // host that really models that service (no false positives).
  const auto& infos = campus_->hosts();
  std::unordered_map<Ipv4, const host::Host*> by_static_addr;
  for (const auto& info : infos) {
    if (info.cls == AddressClass::kStatic && info.host->address()) {
      by_static_addr[*info.host->address()] = info.host;
    }
  }
  int checked = 0;
  engine_->prober().table().for_each(
      [&](const passive::ServiceKey& key, const passive::ServiceRecord&) {
        const auto it = by_static_addr.find(key.addr);
        if (it == by_static_addr.end()) return;  // transient address churn
        bool modeled = false;
        for (const auto& s : it->second->services()) {
          modeled |= s.proto == key.proto && s.port == key.port;
        }
        EXPECT_TRUE(modeled) << key.addr.to_string() << ":" << key.port;
        ++checked;
      });
  EXPECT_GT(checked, 20);
}

TEST_F(Campaign, PassiveOnlyServersAreFirewalledOrTransient) {
  const auto end = kEpoch + campus_->config().duration;
  const auto passive = core::addresses_found(engine_->monitor().table(), end);
  const auto active = core::addresses_found(engine_->prober().table(), end);
  int passive_only = 0;
  for (const Ipv4 addr : passive) passive_only += !active.contains(addr);
  // The tiny scenario has firewalled hosts and transient churn, so a few
  // passive-only servers must exist ...
  EXPECT_GT(passive_only, 0);
  // ... but they stay a small minority (paper: 2.3% after 12 h).
  EXPECT_LT(passive_only * 5, static_cast<int>(passive.size()));
}

TEST_F(Campaign, ScanDetectorFlagsBigSweepSources) {
  // The tiny scenario schedules full-space sweeps; their sources must be
  // flagged, and flagged sources must be genuine scanner addresses.
  const auto& detector = engine_->scan_detector();
  EXPECT_GT(detector.scanner_count(), 0u);
  const auto genuine = campus_->scanners().scanner_sources();
  for (const Ipv4 flagged : detector.scanners()) {
    EXPECT_NE(std::find(genuine.begin(), genuine.end(), flagged),
              genuine.end())
        << "false positive " << flagged.to_string();
  }
}

TEST_F(Campaign, ScannerExclusionReducesPassiveDiscovery) {
  ASSERT_NE(engine_->excluded_monitor(), nullptr);
  EXPECT_LT(engine_->excluded_monitor()->table().size(),
            engine_->monitor().table().size());
}

TEST_F(Campaign, HotServersDiscoveredAlmostImmediately) {
  const auto end = kEpoch + campus_->config().duration;
  const auto times =
      core::address_discovery_times(engine_->monitor().table(), end);
  const auto weights = core::address_weights(engine_->monitor().table());
  const auto curves = core::weighted_curves(times, weights);
  // Flow-weighted discovery hits 90% long before unweighted does.
  const double total = curves.flow_weighted.total();
  ASSERT_GT(total, 0.0);
  const auto t90 = curves.flow_weighted.time_to_reach(0.9 * total);
  EXPECT_LT(t90, kEpoch + hours(2));
  const auto unweighted_t90 =
      curves.unweighted.time_to_reach(0.9 * curves.unweighted.total());
  EXPECT_GT(unweighted_t90, t90);
}

TEST_F(Campaign, VpnServicesInvisiblePassively) {
  const auto end = kEpoch + campus_->config().duration;
  core::ServiceFilter vpn_filter;
  auto* campus = campus_;
  vpn_filter.address_pred = [campus](Ipv4 addr) {
    return campus->class_of(addr) == AddressClass::kVpn;
  };
  const auto passive_vpn =
      core::addresses_found(engine_->monitor().table(), end, vpn_filter);
  const auto active_vpn =
      core::addresses_found(engine_->prober().table(), end, vpn_filter);
  EXPECT_GT(active_vpn.size(), passive_vpn.size());
}

TEST_F(Campaign, PerLinkMonitorsPartitionTheCombined) {
  // Every service a link monitor saw must be in the combined monitor,
  // and the combined monitor must not exceed the union of links.
  std::size_t union_upper = 0;
  for (std::size_t i = 0; i < engine_->link_monitor_count(); ++i) {
    union_upper += engine_->link_monitor(i).table().size();
    engine_->link_monitor(i).table().for_each(
        [&](const passive::ServiceKey& key, const passive::ServiceRecord&) {
          EXPECT_TRUE(engine_->monitor().table().contains(key));
        });
  }
  EXPECT_GE(union_upper, engine_->monitor().table().size());
  EXPECT_GE(engine_->link_monitor_count(), 2u);
}

TEST_F(Campaign, TapStatisticsConsistent) {
  for (std::size_t i = 0; i < engine_->tap_count(); ++i) {
    const auto& tap = engine_->tap(i);
    EXPECT_EQ(tap.seen(),
              tap.filtered_out() + tap.sampled_out() + tap.delivered());
    EXPECT_GT(tap.seen(), 0u);
  }
}

TEST_F(Campaign, ProbesInvisibleToPassiveMonitor) {
  // No discovered passive service may cite a prober source as client.
  const auto& probers = campus_->prober_sources();
  engine_->monitor().table().for_each(
      [&](const passive::ServiceKey&, const passive::ServiceRecord& record) {
        for (const Ipv4 prober : probers) {
          EXPECT_FALSE(record.clients.contains(prober));
        }
      });
}

// Determinism: two identical tiny campaigns give identical results.
TEST(Determinism, IdenticalSeedsIdenticalDiscoveries) {
  auto run = [] {
    workload::Campus campus(workload::CampusConfig::tiny());
    EngineConfig cfg;
    cfg.scan_count = 2;
    DiscoveryEngine engine(campus, cfg);
    engine.run();
    return std::pair{engine.monitor().table().size(),
                     engine.prober().table().size()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiverge) {
  auto run = [](std::uint64_t seed) {
    auto cfg = workload::CampusConfig::tiny();
    cfg.seed = seed;
    workload::Campus campus(cfg);
    EngineConfig ecfg;
    ecfg.scan_count = 1;
    DiscoveryEngine engine(campus, ecfg);
    engine.run();
    return engine.monitor().table().size();
  };
  // Not guaranteed for every pair, but these seeds differ in population
  // layout, so identical outputs would indicate a plumbing bug.
  EXPECT_NE(run(1), run(999));
}

}  // namespace
}  // namespace svcdisc
