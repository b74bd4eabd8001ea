// perfbench_campaign: runs one benchmark campaign through svcdisc's public
// API and prints what it measured as one JSON object on stdout. The
// orchestrator (perfbench/run.py) starts a fresh process per campaign so
// the kernel's peak-RSS figure belongs to exactly one campaign.
//
//   perfbench_campaign campaign --workload=W --seed=N
//       setup + DiscoveryEngine::run + completeness report, timed from
//       outside each call, plus the deterministic statistics and the
//       output check (table digests, never-offered services).
//   perfbench_campaign setup --workload=W --seed=N --reps=K
//       Campus + DiscoveryEngine construction, K times in one process.
//   perfbench_campaign traced --workload=W --seed=N --trace-out=FILE
//       the per-layer run: an untimed recording run captures the border
//       stream (DiscoveryEngine::add_tap_consumer); then, with util::trace
//       on, a prober-only campaign, the traced campaign, and replays of
//       the recorded stream into freshly built layer instances. The
//       benchmark's own spans wrap every phase and replay call.
//
// Every campaign runs serially (EngineConfig::threads = 1). All timings
// are host time from std::chrono::steady_clock; simulated time appears
// only inside the campaign's own statistics.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/streaming.h"
#include "capture/filter.h"
#include "capture/tap.h"
#include "core/completeness.h"
#include "core/engine.h"
#include "core/report.h"
#include "host/host.h"
#include "host/universe.h"
#include "net/ipv4.h"
#include "net/packet.h"
#include "passive/monitor.h"
#include "passive/scan_detector.h"
#include "passive/service_table.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "util/flags.h"
#include "util/flat_hash.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"
#include "workload/campus.h"

namespace svcdisc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads. The seed picks the campus; the engine only sees the configs.
// ---------------------------------------------------------------------------

struct Workload {
  workload::CampusConfig campus;
  core::EngineConfig engine;
};

/// `scan_only` keeps the population and the scan schedule but silences
/// client traffic and external scanners, so the prober stack runs alone
/// (active.scan_s).
bool make_workload(const std::string& name, std::uint64_t seed,
                   bool scan_only, Workload* out) {
  Workload w;
  if (name == "paper_dtcp1_18d") {
    w.campus = workload::CampusConfig::dtcp1_18d();
  } else if (name == "sweep_scale1m") {
    w.campus = workload::CampusConfig::scale1m();
  } else if (name == "adaptive_scale") {
    w.campus = workload::CampusConfig::scale1m();
    w.campus.scale_blocks = 1;
    w.campus.scale_block_bits = 18;
    w.engine.adaptive_prober = true;
  } else if (name == "smoke") {
    // Self-test only: the tiny campus for one day.
    w.campus = workload::CampusConfig::tiny();
    w.campus.duration = util::days(1);
  } else {
    return false;
  }
  w.campus.seed = seed;
  // The CLI's default schedule: one scan every 12 hours.
  w.engine.scan_count = static_cast<int>(w.campus.duration.days() * 2);
  w.engine.threads = 1;
  if (scan_only) {
    w.campus.traffic_scale = 0;
    w.campus.oneshot_services = 0;
    w.campus.external_scans = false;
    w.campus.scale_oneshot_contacts = 0;
  }
  *out = std::move(w);
  return true;
}

// ---------------------------------------------------------------------------
// Phase worker: every campaign phase runs on one dedicated thread while
// the calling thread holds the benchmark's span around it. The program's
// own trace points (one per probe in the prober) then fill the worker's
// trace ring, and the benchmark's spans keep a ring of their own.
// ---------------------------------------------------------------------------

class PhaseWorker {
 public:
  PhaseWorker() : thread_([this] { loop(); }) {}
  ~PhaseWorker() {
    {
      std::lock_guard lock(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  PhaseWorker(const PhaseWorker&) = delete;
  PhaseWorker& operator=(const PhaseWorker&) = delete;

  /// Runs `fn` on the worker and waits for it; rethrows its exception.
  void call(const std::function<void()>& fn) {
    std::unique_lock lock(mu_);
    task_ = &fn;
    error_ = nullptr;
    cv_.notify_all();
    cv_.wait(lock, [this] { return task_ == nullptr; });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return quit_ || task_ != nullptr; });
      if (task_ == nullptr) return;
      const std::function<void()>* fn = task_;
      lock.unlock();
      std::exception_ptr error;
      try {
        (*fn)();
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      error_ = error;
      task_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  const std::function<void()>* task_{nullptr};
  std::exception_ptr error_;
  bool quit_{false};
  std::thread thread_;  // last: starts after the state it uses exists
};

/// Runs `fn` on the worker inside a benchmark span named `span`; returns
/// its host time, measured on the worker so the hand-off is excluded.
double timed_phase(PhaseWorker& worker, const char* span,
                   const std::function<void()>& fn) {
  util::trace::ScopedSpan s(span);
  double seconds = 0;
  worker.call([&] {
    const auto t0 = Clock::now();
    fn();
    seconds = seconds_since(t0);
  });
  return seconds;
}

// ---------------------------------------------------------------------------
// Ground truth: every address each campus host held during the run.
// ---------------------------------------------------------------------------

class LeaseLog {
 public:
  /// Chains onto every host's state callback (Campus keeps its own
  /// address index through the same hook, so it is called first).
  explicit LeaseLog(workload::Campus& campus) {
    for (const workload::HostInfo& info : campus.hosts()) {
      host::Host* h = info.host;
      h->on_state_change = [this, prev = std::move(h->on_state_change)](
                               host::Host& host, bool online) {
        if (prev) prev(host, online);
        if (!online) return;
        if (const auto addr = host.address()) leases_.push_back({&host, *addr});
      };
    }
  }
  LeaseLog(const LeaseLog&) = delete;
  LeaseLog& operator=(const LeaseLog&) = delete;

  const std::vector<std::pair<const host::Host*, net::Ipv4>>& leases() const {
    return leases_;
  }

 private:
  std::vector<std::pair<const host::Host*, net::Ipv4>> leases_;
};

bool offers(const host::Host& h, net::Proto proto, net::Port port) {
  for (const host::Service& s : h.services()) {
    if (s.proto == proto && s.port == port) return true;
  }
  return false;
}

/// Order-independent digest of a service table: its size and the
/// wrapping sum of a mix of every (key, first_seen).
std::uint64_t table_digest(const passive::ServiceTable& table) {
  std::uint64_t sum = table.size();
  table.for_each([&sum](const passive::ServiceKey& k,
                        const passive::ServiceRecord& r) {
    sum += util::hash_mix(
        (std::uint64_t{k.addr.value()} << 24) ^ (std::uint64_t{k.port} << 8) ^
        static_cast<std::uint8_t>(k.proto) ^
        (static_cast<std::uint64_t>(r.first_seen.usec) * 0x9E3779B97F4A7C15ULL));
  });
  return sum;
}

// ---------------------------------------------------------------------------
// One campaign.
// ---------------------------------------------------------------------------

struct Stats {
  // Deterministic for a (workload, seed): compared across runs.
  std::uint64_t events{0};
  std::uint64_t queue_depth_hwm{0};
  std::uint64_t packets_sent{0};
  std::uint64_t tap_packets{0};
  std::uint64_t tap_matched{0};
  std::uint64_t probes{0};
  std::uint64_t responses{0};
  std::uint64_t active_found{0};
  std::uint64_t passive_found{0};
  std::uint64_t flows_counted{0};
  std::uint64_t scanners_flagged{0};
  std::uint64_t seeds_probed{0};
  std::uint64_t verify_probes{0};
  std::uint64_t union_services{0};
  std::uint64_t active_total{0};
  std::uint64_t passive_total{0};
  std::uint64_t truth_services{0};
  std::uint64_t truth_found{0};
  std::uint64_t universe_materialized{0};
  std::uint64_t universe_bytes{0};
  std::uint64_t passive_digest{0};
  std::uint64_t active_digest{0};
  /// Table entries naming a service the campus or universe never offered.
  std::uint64_t unoffered{0};

  bool operator==(const Stats&) const = default;
};

struct Timings {
  double build_s{0};         ///< workload::Campus constructor
  double engine_build_s{0};  ///< core::DiscoveryEngine constructor
  double run_s{0};           ///< DiscoveryEngine::run
  double report_s{0};        ///< addresses_found x2 + core::completeness
};

/// A campaign's objects, kept alive after the run for replays.
struct Campaign {
  util::MetricsRegistry registry;
  std::unique_ptr<workload::Campus> campus;
  std::unique_ptr<LeaseLog> leases;
  std::unique_ptr<core::DiscoveryEngine> engine;
  core::Completeness completeness;
  Timings time;
};

std::unique_ptr<Campaign> run_campaign(PhaseWorker& worker, const Workload& w,
                                       sim::PacketObserver* recorder) {
  auto c = std::make_unique<Campaign>();
  util::trace::ScopedSpan campaign_span("bench.campaign");
  {
    util::trace::ScopedSpan setup_span("bench.setup");
    c->time.build_s = timed_phase(worker, "bench.workload.build", [&] {
      c->campus = std::make_unique<workload::Campus>(w.campus);
    });
    c->leases = std::make_unique<LeaseLog>(*c->campus);
    c->time.engine_build_s =
        timed_phase(worker, "bench.core.engine_build", [&] {
          core::EngineConfig cfg = w.engine;
          cfg.metrics = &c->registry;
          c->engine = std::make_unique<core::DiscoveryEngine>(*c->campus, cfg);
        });
  }
  if (recorder) c->engine->add_tap_consumer(recorder);
  c->time.run_s =
      timed_phase(worker, "bench.core.run", [&] { c->engine->run(); });
  c->time.report_s = timed_phase(worker, "bench.core.report", [&] {
    const auto end = util::kEpoch + c->campus->config().duration;
    const auto passive =
        core::addresses_found(c->engine->monitor().table(), end);
    const auto active = core::addresses_found(c->engine->prober().table(), end);
    c->completeness = core::completeness(passive, active);
  });
  return c;
}

Stats collect_stats(const Campaign& c) {
  Stats s;
  const util::MetricsSnapshot m = c.registry.snapshot();
  const auto count = [&m](std::string_view name) {
    return static_cast<std::uint64_t>(m.value_of(name));
  };
  s.events = count("sim.events_processed");
  s.queue_depth_hwm = count("sim.queue_depth_hwm");
  s.packets_sent = c.campus->network().packets_sent();
  for (std::size_t i = 0; i < c.engine->tap_count(); ++i) {
    const std::string base = "tap." + c.engine->tap(i).name();
    s.tap_packets += count(base + ".packets_seen");
    s.tap_matched += count(base + ".filter_match");
  }
  s.probes = count("active.probes_tcp_sent") + count("active.probes_udp_sent");
  s.responses = count("active.responses_received");
  s.active_found = c.engine->prober().table().size();
  s.passive_found = c.engine->monitor().table().size();
  s.flows_counted = count("passive.flows_counted");
  s.scanners_flagged = count("scan_detector.scanners_flagged");
  if (const active::AdaptiveProber* a = c.engine->adaptive_prober()) {
    s.seeds_probed = a->seeds_probed_total();
    s.verify_probes = a->verify_sent_total();
  }
  s.union_services = c.completeness.union_count;
  s.active_total = c.completeness.active_total;
  s.passive_total = c.completeness.passive_total;
  s.passive_digest = table_digest(c.engine->monitor().table());
  s.active_digest = table_digest(c.engine->prober().table());

  const workload::Campus& campus = *c.campus;
  const host::ScaleUniverse* universe = campus.universe();
  if (universe) {
    s.universe_materialized = universe->materialized_count();
    s.universe_bytes = universe->memory_bytes();
  }

  // Output check: every table entry must name a service that some host
  // holding that address offered, or that the universe profile serves.
  std::unordered_map<std::uint32_t, std::vector<const host::Host*>> holders;
  for (const auto& [h, addr] : c.leases->leases()) {
    auto& list = holders[addr.value()];
    if (std::find(list.begin(), list.end(), h) == list.end()) list.push_back(h);
  }
  const auto offered = [&](const passive::ServiceKey& k) {
    if (universe && universe->contains(k.addr)) {
      const host::ScaleProfile p = universe->profile(k.addr);
      return k.proto == net::Proto::kTcp && p.service && p.port == k.port;
    }
    const auto it = holders.find(k.addr.value());
    if (it == holders.end()) return false;
    for (const host::Host* h : it->second) {
      if (offers(*h, k.proto, k.port)) return true;
    }
    return false;
  };
  const auto check = [&](const passive::ServiceKey& k,
                         const passive::ServiceRecord&) {
    if (!offered(k)) ++s.unoffered;
  };
  c.engine->monitor().table().for_each(check);
  c.engine->prober().table().for_each(check);

  // Recall: ground-truth services on the probed ports, found by the
  // prober. A campus service counts as found when the prober confirmed
  // it open at any address its host held.
  const passive::ServiceTable& found = c.engine->prober().table();
  std::unordered_map<const host::Host*, std::vector<net::Ipv4>> held;
  for (const auto& [h, addr] : c.leases->leases()) held[h].push_back(addr);
  const auto probed = [&campus](net::Proto proto, net::Port port) {
    const auto& ports =
        proto == net::Proto::kUdp ? campus.udp_ports() : campus.tcp_ports();
    return std::find(ports.begin(), ports.end(), port) != ports.end();
  };
  for (const workload::HostInfo& info : campus.hosts()) {
    const auto it = held.find(info.host);
    for (const host::Service& svc : info.host->services()) {
      if (!probed(svc.proto, svc.port)) continue;
      ++s.truth_services;
      if (it == held.end()) continue;
      for (net::Ipv4 addr : it->second) {
        if (found.contains({addr, svc.proto, svc.port})) {
          ++s.truth_found;
          break;
        }
      }
    }
  }
  if (universe) {
    // The universe's blocks are the internal prefixes it contains.
    for (const net::Prefix& block : campus.internal_prefixes()) {
      if (!universe->contains(block.base())) continue;
      for (std::uint64_t i = 0; i < block.size(); ++i) {
        const net::Ipv4 addr = block.at(i);
        const host::ScaleProfile p = universe->profile(addr);
        if (!p.service || !probed(net::Proto::kTcp, p.port)) continue;
        ++s.truth_services;
        if (found.contains({addr, net::Proto::kTcp, p.port})) ++s.truth_found;
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

class JsonObject {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    field(key, buf);
  }
  void count(const char* key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void hex(const char* key, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(v));
    field(key, buf);
  }
  void object(const char* key, const JsonObject& o) { field(key, o.text()); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
  }
  std::string body_;
};

JsonObject stats_json(const Stats& s) {
  JsonObject o;
  o.count("events", s.events);
  o.count("queue_depth_hwm", s.queue_depth_hwm);
  o.count("packets_sent", s.packets_sent);
  o.count("tap_packets", s.tap_packets);
  o.count("tap_matched", s.tap_matched);
  o.count("probes", s.probes);
  o.count("responses", s.responses);
  o.count("active_found", s.active_found);
  o.count("passive_found", s.passive_found);
  o.count("flows_counted", s.flows_counted);
  o.count("scanners_flagged", s.scanners_flagged);
  o.count("seeds_probed", s.seeds_probed);
  o.count("verify_probes", s.verify_probes);
  o.count("union_services", s.union_services);
  o.count("active_total", s.active_total);
  o.count("passive_total", s.passive_total);
  o.count("truth_services", s.truth_services);
  o.count("truth_found", s.truth_found);
  o.count("universe_materialized", s.universe_materialized);
  o.count("universe_bytes", s.universe_bytes);
  o.hex("passive_digest", s.passive_digest);
  o.hex("active_digest", s.active_digest);
  o.count("unoffered", s.unoffered);
  return o;
}

JsonObject timings_json(const Timings& t) {
  JsonObject o;
  o.num("build_s", t.build_s);
  o.num("engine_build_s", t.engine_build_s);
  o.num("run_s", t.run_s);
  o.num("report_s", t.report_s);
  return o;
}

// ---------------------------------------------------------------------------
// Replays: the recorded border stream fed to freshly built layers.
// ---------------------------------------------------------------------------

/// Captures the monitors' input stream with its batch boundaries, so a
/// replay can call observe_batch as the border called the taps.
class StreamRecorder final : public sim::PacketObserver {
 public:
  /// A tap with several consumers fans its survivors out one at a time.
  /// Its input batches were same-timestamp runs, so regroup by time.
  void observe(const net::Packet& p) override {
    const bool same_batch = !packets.empty() && packets.back().time == p.time;
    packets.push_back(p);
    if (same_batch) {
      ends.back() = packets.size();
    } else {
      ends.push_back(packets.size());
    }
  }
  void observe_batch(std::span<const net::Packet> batch) override {
    packets.insert(packets.end(), batch.begin(), batch.end());
    ends.push_back(packets.size());
  }
  template <typename Fn>
  void for_each_batch(Fn&& fn) const {
    std::size_t begin = 0;
    for (std::size_t end : ends) {
      fn(std::span<const net::Packet>(packets.data() + begin, end - begin));
      begin = end;
    }
  }

  std::vector<net::Packet> packets;
  std::vector<std::size_t> ends;
};

/// Median over `reps` timed repetitions of `fn` (fresh state each time,
/// built by `fn` itself outside its returned timing), in ns per item.
double median_ns_per_item(int reps, std::uint64_t items,
                          const std::function<double()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) samples.push_back(fn());
  std::sort(samples.begin(), samples.end());
  const double med = samples[samples.size() / 2];
  return items == 0 ? 0.0 : med * 1e9 / static_cast<double>(items);
}

passive::MonitorConfig monitor_config_for(const workload::Campus& campus) {
  // The engine's combined-monitor configuration (DiscoveryEngine wiring).
  passive::MonitorConfig cfg;
  cfg.internal_prefixes = campus.internal_prefixes();
  if (!campus.config().all_ports_mode) {
    cfg.tcp_ports = campus.tcp_ports();
    cfg.udp_ports = campus.udp_ports();
  }
  cfg.detect_udp = campus.config().udp_mode;
  return cfg;
}

struct TableOp {
  enum Kind : std::uint8_t { kDiscover, kFlow } kind;
  passive::ServiceKey key;
  net::Ipv4 client;
  util::TimePoint t;
};

/// The service-table operations the passive rules derive from the
/// stream: a SYN-ACK from an internal server discovers (or renews) its
/// service; an inbound SYN counts a flow toward it.
std::vector<TableOp> table_ops(const StreamRecorder& rec,
                               const passive::MonitorConfig& cfg) {
  const auto internal = [&cfg](net::Ipv4 a) {
    for (const net::Prefix& p : cfg.internal_prefixes) {
      if (p.contains(a)) return true;
    }
    return false;
  };
  const auto selected = [&cfg](net::Port port) {
    return cfg.tcp_ports.empty() ||
           std::find(cfg.tcp_ports.begin(), cfg.tcp_ports.end(), port) !=
               cfg.tcp_ports.end();
  };
  std::vector<TableOp> ops;
  for (const net::Packet& p : rec.packets) {
    if (p.proto != net::Proto::kTcp) continue;
    if (p.flags.is_syn_ack() && internal(p.src) && selected(p.sport)) {
      ops.push_back({TableOp::kDiscover, {p.src, net::Proto::kTcp, p.sport},
                     p.dst, p.time});
    } else if (p.flags.is_syn_only() && !internal(p.src) && internal(p.dst) &&
               selected(p.dport)) {
      ops.push_back({TableOp::kFlow, {p.dst, net::Proto::kTcp, p.dport}, p.src,
                     p.time});
    }
  }
  return ops;
}

class NullTarget final : public sim::PacketEventTarget {
 public:
  void deliver_packets(std::span<net::Packet>, net::Ipv4, bool) override {}
};

struct ReplayResult {
  double filter_ns{0};
  double monitor_ns{0};
  double detector_ns{0};
  double table_ns{0};
  double streaming_ns{0};
  double queue_ns{0};
  double owner_ns{0};
  std::uint64_t stream_packets{0};
  std::uint64_t table_op_count{0};
  std::uint64_t filter_matched{0};  ///< summed over the repetitions
  std::uint64_t owner_hits{0};      ///< summed over the repetitions
  /// The replayed monitor must rebuild the campaign's passive table and
  /// the replayed detector must flag the same scanners.
  bool monitor_matches{false};
  bool detector_matches{false};
};

constexpr int kReplayReps = 5;

/// Replays `rec` into fresh layer instances on the worker, one benchmark
/// span per layer; `campaign` holds the statistics of `c`.
ReplayResult run_replays(PhaseWorker& worker, const Campaign& c,
                         const Stats& campaign, const StreamRecorder& rec,
                         std::uint64_t seed) {
  ReplayResult r;
  const workload::Campus& campus = *c.campus;
  const passive::MonitorConfig mcfg = monitor_config_for(campus);
  const std::uint64_t n = rec.packets.size();
  r.stream_packets = n;

  timed_phase(worker, "bench.replay.capture.filter", [&] {
    const capture::Filter filter = capture::Tap::paper_default_filter();
    std::uint64_t matched = 0;
    r.filter_ns = median_ns_per_item(kReplayReps, n, [&] {
      const auto t0 = Clock::now();
      for (const net::Packet& p : rec.packets) matched += filter.matches(p);
      return seconds_since(t0);
    });
    r.filter_matched = matched;
  });
  timed_phase(worker, "bench.replay.passive.monitor", [&] {
    r.monitor_ns = median_ns_per_item(kReplayReps, n, [&] {
      capture::Tap tap("replay");
      tap.set_filter(capture::Tap::paper_default_filter());
      passive::PassiveMonitor monitor(mcfg);
      monitor.set_scan_detector(std::make_shared<passive::ScanDetector>(
          passive::ScanDetectorConfig{}, campus.internal_prefixes()));
      tap.add_consumer(&monitor);
      const auto t0 = Clock::now();
      rec.for_each_batch([&](std::span<const net::Packet> b) {
        tap.observe_batch(b);
      });
      const double s = seconds_since(t0);
      r.monitor_matches =
          table_digest(monitor.table()) == campaign.passive_digest;
      return s;
    });
  });
  timed_phase(worker, "bench.replay.passive.scan_detector", [&] {
    r.detector_ns = median_ns_per_item(kReplayReps, n, [&] {
      passive::ScanDetector detector(passive::ScanDetectorConfig{},
                                     campus.internal_prefixes());
      const auto t0 = Clock::now();
      rec.for_each_batch([&](std::span<const net::Packet> b) {
        detector.observe_batch(b);
      });
      const double s = seconds_since(t0);
      r.detector_matches =
          detector.scanner_count() == campaign.scanners_flagged;
      return s;
    });
  });
  timed_phase(worker, "bench.replay.passive.service_table", [&] {
    const std::vector<TableOp> ops = table_ops(rec, mcfg);
    r.table_op_count = ops.size();
    r.table_ns = median_ns_per_item(kReplayReps, ops.size(), [&] {
      passive::ServiceTable table;
      const auto t0 = Clock::now();
      for (const TableOp& op : ops) {
        if (op.kind == TableOp::kFlow) {
          table.count_flow(op.key, op.client, op.t);
        } else if (!table.discover(op.key, op.t)) {
          table.touch(op.key, op.t);
        }
      }
      return seconds_since(t0);
    });
  });
  timed_phase(worker, "bench.replay.analysis.streaming", [&] {
    // The engine puts the scan detector upstream of the stream; here the
    // stream consults one that has already seen the whole replay.
    auto detector = std::make_shared<passive::ScanDetector>(
        passive::ScanDetectorConfig{}, campus.internal_prefixes());
    rec.for_each_batch(
        [&](std::span<const net::Packet> b) { detector->observe_batch(b); });
    const util::TimePoint end = util::kEpoch + campus.config().duration;
    r.streaming_ns = median_ns_per_item(kReplayReps, n, [&] {
      analysis::StreamingAnalytics stream(core::streaming_config_for(campus));
      stream.set_scan_detector(detector);
      const auto t0 = Clock::now();
      rec.for_each_batch([&](std::span<const net::Packet> b) {
        stream.observe_batch(b);
      });
      stream.finish(end);
      return seconds_since(t0);
    });
  });
  // Hold model at the campaign's recorded queue depth: pop the
  // earliest event, push one a network latency later.
  timed_phase(worker, "bench.replay.sim.event_queue", [&] {
    const std::size_t depth =
        std::max<std::uint64_t>(campaign.queue_depth_hwm, 1);
    const std::uint64_t ops = 2'000'000;
    const net::Packet fallback = net::make_tcp(
        net::Ipv4(1), 1, net::Ipv4(2), 80, net::TcpFlags{});
    NullTarget target;
    r.queue_ns = median_ns_per_item(kReplayReps, ops, [&] {
      util::Rng rng(seed);
      sim::EventQueue queue;
      const auto packet = [&](std::uint64_t i) -> const net::Packet& {
        return n == 0 ? fallback : rec.packets[i % n];
      };
      const auto latency = [&rng] {
        return util::usec(rng.chance(0.5) ? 1000 : 20000) +
               util::usec(static_cast<std::int64_t>(rng.below(1000)));
      };
      for (std::size_t i = 0; i < depth; ++i) {
        queue.push_packet(util::kEpoch + latency(), &target, packet(i), {},
                          false);
      }
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < ops; ++i) {
        const sim::Event e = queue.pop();
        queue.push_packet(e.time + latency(), &target, packet(i), {}, false);
      }
      return seconds_since(t0);
    });
  });
  // Routing lookups for the recorded endpoints plus every probe
  // target, against the campaign's network as the run left it.
  timed_phase(worker, "bench.replay.sim.network.owner", [&] {
    std::vector<net::Ipv4> endpoints;
    endpoints.reserve(2 * n + campus.scan_targets().size());
    for (const net::Packet& p : rec.packets) {
      endpoints.push_back(p.src);
      endpoints.push_back(p.dst);
    }
    endpoints.insert(endpoints.end(), campus.scan_targets().begin(),
                     campus.scan_targets().end());
    const sim::Network& network = c.campus->network();
    std::uint64_t owned = 0;
    r.owner_ns = median_ns_per_item(kReplayReps, endpoints.size(), [&] {
      const auto t0 = Clock::now();
      for (net::Ipv4 a : endpoints) owned += network.owner(a) != nullptr;
      return seconds_since(t0);
    });
    r.owner_hits = owned;
  });
  return r;
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

int mode_campaign(const Workload& w) {
  PhaseWorker worker;
  const auto c = run_campaign(worker, w, nullptr);
  const Stats s = collect_stats(*c);
  JsonObject out;
  out.object("time", timings_json(c->time));
  out.object("stats", stats_json(s));
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int mode_setup(const Workload& w, int reps) {
  PhaseWorker worker;
  std::string samples;
  for (int i = 0; i < reps; ++i) {
    std::unique_ptr<workload::Campus> campus;
    std::unique_ptr<core::DiscoveryEngine> engine;
    util::MetricsRegistry registry;
    const double build_s = timed_phase(worker, "bench.workload.build", [&] {
      campus = std::make_unique<workload::Campus>(w.campus);
    });
    const double engine_s = timed_phase(worker, "bench.core.engine_build", [&] {
      core::EngineConfig cfg = w.engine;
      cfg.metrics = &registry;
      engine = std::make_unique<core::DiscoveryEngine>(*campus, cfg);
    });
    worker.call([&] {
      engine.reset();
      campus.reset();
    });
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%.9g", samples.empty() ? "" : ", ",
                  build_s + engine_s);
    samples += buf;
  }
  std::printf("{\"setup_s\": [%s]}\n", samples.c_str());
  return 0;
}

int mode_traced(const std::string& name, std::uint64_t seed,
                const std::string& trace_out) {
  Workload w;
  Workload scan_only;
  make_workload(name, seed, false, &w);
  make_workload(name, seed, true, &scan_only);
  PhaseWorker worker;

  // Untimed, untraced recording run. Recording must not perturb the
  // campaign: its statistics are checked against the traced campaign's.
  StreamRecorder rec;
  const Stats recorded = collect_stats(*run_campaign(worker, w, &rec));

  util::trace::start();
  double scan_s = 0;
  {
    util::trace::ScopedSpan span("bench.active.scan_only");
    const Timings t = run_campaign(worker, scan_only, nullptr)->time;
    scan_s = t.build_s + t.engine_build_s + t.run_s + t.report_s;
  }
  const auto c = run_campaign(worker, w, nullptr);
  const Stats s = collect_stats(*c);
  const ReplayResult r = run_replays(worker, *c, s, rec, seed);
  util::trace::stop();
  const std::uint64_t trace_dropped = util::trace::dropped();
  const std::uint64_t trace_recorded = util::trace::recorded();
  if (!util::trace::write_chrome_json(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }

  JsonObject replay;
  replay.num("capture.filter.ns_per_pkt", r.filter_ns);
  replay.num("passive.monitor.ns_per_pkt", r.monitor_ns);
  replay.num("passive.scan_detector.ns_per_pkt", r.detector_ns);
  replay.num("passive.service_table.ns_per_op", r.table_ns);
  replay.num("analysis.streaming.ns_per_pkt", r.streaming_ns);
  replay.num("sim.event_queue.ns_per_event", r.queue_ns);
  replay.num("sim.network.owner_ns", r.owner_ns);
  replay.count("stream_packets", r.stream_packets);
  replay.count("table_ops", r.table_op_count);
  replay.count("filter_matched", r.filter_matched);
  replay.count("owner_hits", r.owner_hits);
  replay.count("monitor_matches", r.monitor_matches ? 1 : 0);
  replay.count("detector_matches", r.detector_matches ? 1 : 0);
  replay.count("recording_matches", recorded == s ? 1 : 0);
  JsonObject out;
  out.object("time", timings_json(c->time));
  out.object("stats", stats_json(s));
  out.object("replay", replay);
  out.num("scan_only_s", scan_s);
  out.count("trace_recorded", trace_recorded);
  out.count("trace_dropped", trace_dropped);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace
}  // namespace svcdisc::perfbench

int main(int argc, char** argv) {
  using namespace svcdisc;
  std::string workload_name;
  std::int64_t seed = 1;
  std::int64_t reps = 5;
  std::string trace_out;
  util::Flags flags("perfbench_campaign",
                    "campaign | setup | traced: one benchmark campaign");
  flags.add_string("workload", "benchmark workload name", &workload_name);
  flags.add_int64("seed", "workload seed", &seed);
  flags.add_int64("reps", "setup: constructions to time", &reps);
  flags.add_string("trace-out", "traced: Chrome trace JSON path", &trace_out);
  if (!flags.parse(argc, argv) || flags.positional().size() != 1) {
    std::fputs(flags.usage().c_str(), stderr);
    if (!flags.error().empty()) {
      std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    }
    return 2;
  }
  const std::string& mode = flags.positional()[0];
  perfbench::Workload w;
  if (!perfbench::make_workload(workload_name, static_cast<std::uint64_t>(seed),
                                false, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return 2;
  }
  if (mode == "campaign") return perfbench::mode_campaign(w);
  if (mode == "setup" && reps >= 1) {
    return perfbench::mode_setup(w, static_cast<int>(reps));
  }
  if (mode == "traced" && !trace_out.empty()) {
    return perfbench::mode_traced(workload_name,
                                  static_cast<std::uint64_t>(seed), trace_out);
  }
  std::fprintf(stderr, "bad mode or missing --reps/--trace-out\n");
  return 2;
}
