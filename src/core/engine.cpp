#include "core/engine.h"

#include <algorithm>
#include <stdexcept>

#include "core/shard_pipeline.h"
#include "core/worker_pool.h"
#include "util/trace.h"

namespace svcdisc::core {

DiscoveryEngine::DiscoveryEngine(workload::Campus& campus, EngineConfig config)
    : campus_(campus), config_(config) {
  util::MetricsRegistry* metrics = config_.metrics;
  const auto& internal = campus_.internal_prefixes();
  detector_ = std::make_shared<passive::ScanDetector>(
      passive::ScanDetectorConfig{}, internal);
  if (metrics) detector_->attach_metrics(*metrics, "scan_detector");

  // One tap per peering, each with the paper's capture filter. When
  // fault injection is configured, an Impairment stage sits between the
  // border and the tap; an identity config inserts nothing, so the
  // clean-capture pipeline (and its metric set) is untouched.
  auto& border = campus_.network().border();
  const bool impaired = !config_.impairment.identity() ||
                        !config_.tap_skew.empty();
  for (std::size_t i = 0; i < border.peering_count(); ++i) {
    auto tap = std::make_unique<capture::Tap>(border.peering(i).name);
    tap->set_filter(capture::Tap::paper_default_filter());
    if (metrics) tap->attach_metrics(*metrics, "tap." + tap->name());
    if (impaired) {
      capture::ImpairmentConfig icfg = config_.impairment;
      // Independent rng stream per tap: taps must not share loss/burst
      // decisions, and the derivation must be stable across runs.
      icfg.seed = config_.impairment.seed +
                  0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
      if (i < config_.tap_skew.size()) {
        icfg.skew = icfg.skew + config_.tap_skew[i];
      }
      auto imp = std::make_unique<capture::Impairment>(icfg, tap.get());
      if (metrics) imp->attach_metrics(*metrics, "impair." + tap->name());
      border.add_tap(i, imp.get());
      impairments_.push_back(std::move(imp));
    } else {
      border.add_tap(i, tap.get());
    }
    // When provenance is on, a context shim precedes every later
    // consumer of this tap, so the monitors below always ingest under
    // the right peering attribution.
    if (config_.provenance) {
      auto ctx = std::make_unique<TapContextObserver>(
          config_.provenance, static_cast<std::uint16_t>(i));
      tap->add_consumer(ctx.get());
      tap_contexts_.push_back(std::move(ctx));
    }
    taps_.push_back(std::move(tap));
  }
  if (config_.provenance) {
    std::vector<std::string> names;
    names.reserve(taps_.size());
    for (const auto& tap : taps_) names.push_back(tap->name());
    config_.provenance->set_tap_names(std::move(names));
  }

  // The merge-target monitors exist in both modes; in parallel mode
  // they never consume taps — shard monitors do the observation work
  // and absorb into these at the end of run().
  const std::size_t shards = config_.threads == 0
                                 ? WorkerPool::hardware_threads()
                                 : config_.threads;
  monitor_ =
      std::make_unique<passive::PassiveMonitor>(monitor_config(false));
  monitor_->set_scan_detector(detector_);
  if (metrics) monitor_->attach_metrics(*metrics, "passive");
  if (config_.scanner_excluded_monitor) {
    excluded_monitor_ =
        std::make_unique<passive::PassiveMonitor>(monitor_config(true));
    excluded_monitor_->set_scan_detector(detector_);
    if (metrics) {
      excluded_monitor_->attach_metrics(*metrics, "passive_excluded");
    }
  }
  if (shards > 1) {
    ShardPipelineConfig pcfg;
    pcfg.shards = shards;
    pcfg.combined = monitor_config(false);
    pcfg.excluded_monitor = config_.scanner_excluded_monitor;
    if (pcfg.excluded_monitor) pcfg.excluded = monitor_config(true);
    pcfg.metrics = metrics;
    pcfg.provenance = config_.provenance != nullptr;
    pipeline_ = std::make_unique<ShardPipeline>(std::move(pcfg), detector_);
    for (std::size_t i = 0; i < taps_.size(); ++i) {
      taps_[i]->add_consumer(
          &pipeline_->recorder(static_cast<std::uint16_t>(i)));
    }
    if (!config_.pool) owned_pool_ = std::make_unique<WorkerPool>(shards);
  } else {
    for (auto& tap : taps_) tap->add_consumer(monitor_.get());
    if (ProvenanceLedger* ledger = config_.provenance) {
      monitor_->on_evidence = [ledger](const passive::ServiceKey& key,
                                       util::TimePoint t) {
        ledger->record(key, t,
                       key.proto == net::Proto::kUdp ? EvidenceKind::kUdp
                                                     : EvidenceKind::kSynAck,
                       Discoverer::kPassive, ledger->current_tap());
      };
    }
    if (excluded_monitor_) {
      for (auto& tap : taps_) tap->add_consumer(excluded_monitor_.get());
    }
  }

  // Streaming analytics consume the same tap fanout, added after the
  // monitors/recorder so the shared detector's verdict state at
  // observation time matches what the monitors consulted — identically
  // in serial and sharded mode (both feed the detector upstream of this
  // consumer, on the simulator thread).
  if (analysis::StreamingAnalytics* stream = config_.streaming) {
    stream->set_scan_detector(detector_);
    for (auto& tap : taps_) tap->add_consumer(stream);
    if (metrics) stream->attach_metrics(*metrics);
  }

  if (config_.per_link_monitors) {
    for (auto& tap : taps_) {
      auto link_monitor =
          std::make_unique<passive::PassiveMonitor>(monitor_config(false));
      if (metrics) {
        link_monitor->attach_metrics(*metrics,
                                     "passive_link." + tap->name());
      }
      tap->add_consumer(link_monitor.get());
      link_monitors_.push_back(std::move(link_monitor));
    }
  }

  active::ProberConfig prober_config;
  prober_config.source_addrs = campus_.prober_sources();
  if (config_.adaptive_prober) {
    auto adaptive = std::make_unique<active::AdaptiveProber>(
        campus_.network(), prober_config, config_.adaptive);
    adaptive->configure_feed(campus_.internal_prefixes(),
                             campus_.config().udp_mode
                                 ? campus_.udp_ports()
                                 : std::vector<net::Port>{});
    // The seeding feed joins every tap after the monitors/streaming —
    // it runs on the simulator thread in both serial and sharded mode,
    // so hint order (and everything scored from it) is identical at any
    // --threads count.
    for (auto& tap : taps_) tap->add_consumer(&adaptive->passive_feed());
    adaptive_ = adaptive.get();
    prober_ = std::move(adaptive);
  } else {
    prober_ =
        std::make_unique<active::Prober>(campus_.network(), prober_config);
  }
  if (metrics) prober_->attach_metrics(*metrics, "active");
  if (!pipeline_) {
    // Firewall confirmation's activity method matches a scan's
    // unanswered TCP probes against the combined monitor's table, so
    // each summary keeps the ones that table has discovered by the scan's
    // end. The sharded engine fills the table only at the end of run and
    // keeps none (DESIGN.md §16, "Scan-record lifecycle").
    prober_->keep_filtered_known_to = &monitor_->table();
  }
  if (metrics) campus_.simulator().attach_metrics(*metrics, "sim");
  if (config_.provenance || config_.streaming) {
    // The prober callback fires on the simulator thread; streaming sees
    // it first (live, deterministic order), then the evidence takes the
    // provenance path for its mode.
    ProvenanceLedger* ledger = config_.provenance;
    analysis::StreamingAnalytics* stream = config_.streaming;
    ShardPipeline* pipe = ledger ? pipeline_.get() : nullptr;
    prober_->on_open_response = [ledger, stream, pipe](
                                    const passive::ServiceKey& key,
                                    util::TimePoint t, bool udp) {
      if (stream) stream->on_probe_reply(key, t);
      if (!ledger) return;
      const EvidenceKind kind =
          udp ? EvidenceKind::kProbeReplyUdp : EvidenceKind::kProbeReplyTcp;
      if (pipe) {
        // Parallel mode: active evidence is buffered at its stream
        // position and replayed into the ledger at the merge,
        // interleaved with the shards' passive evidence in serial
        // arrival order.
        pipe->record_active_evidence(key, t, kind);
      } else {
        ledger->record(key, t, kind, Discoverer::kActive);
      }
    };
  }

  if (config_.scan_count > 0) {
    active::ScanSpec spec;
    spec.targets = campus_.scan_targets();
    spec.tcp_ports = campus_.tcp_ports();
    spec.udp_ports = campus_.udp_ports();
    spec.probes_per_sec = campus_.config().probe_rate_per_sec;
    active::ScheduleConfig schedule;
    schedule.first_scan = util::kEpoch + config_.first_scan_offset;
    schedule.period = config_.scan_period;
    schedule.count = config_.scan_count;
    scheduler_ = std::make_unique<active::ScanScheduler>(
        campus_.simulator(), *prober_, std::move(spec), schedule);
    scheduler_->arm();
  }
}

DiscoveryEngine::~DiscoveryEngine() = default;

passive::MonitorConfig DiscoveryEngine::monitor_config(
    bool exclude_scanners) const {
  passive::MonitorConfig cfg;
  cfg.internal_prefixes = campus_.internal_prefixes();
  // DTCPall studies all ports: the campus then reports its scan port
  // list but the monitor must stay unrestricted.
  if (!campus_.config().all_ports_mode) {
    cfg.tcp_ports = campus_.tcp_ports();
    cfg.udp_ports = campus_.udp_ports();
  }
  cfg.detect_udp = campus_.config().udp_mode;
  cfg.exclude_scanner_triggered = exclude_scanners;
  // Injected duplication delivers exact twins back-to-back; the monitor
  // must not double-count them.
  cfg.drop_exact_duplicates = config_.impairment.dup_rate > 0;
  if (config_.sketch_tables) {
    cfg.client_accounting = passive::ClientAccounting::kSketch;
  }
  return cfg;
}

analysis::StreamingConfig streaming_config_for(
    const workload::Campus& campus) {
  analysis::StreamingConfig cfg;
  cfg.internal_prefixes = campus.internal_prefixes();
  if (!campus.config().all_ports_mode) {
    cfg.tcp_ports = campus.tcp_ports();
    cfg.udp_ports = campus.udp_ports();
  }
  cfg.detect_udp = campus.config().udp_mode;
  return cfg;
}

passive::PassiveMonitor& DiscoveryEngine::link_monitor(std::size_t peering) {
  return *link_monitors_.at(peering);
}

passive::PassiveMonitor& DiscoveryEngine::add_sampled_monitor(
    std::unique_ptr<capture::Sampler> sampler) {
  auto monitor =
      std::make_unique<passive::PassiveMonitor>(monitor_config(false));
  if (config_.metrics) {
    monitor->attach_metrics(
        *config_.metrics,
        "passive_sampled." + std::to_string(sampled_monitors_.size()));
  }
  auto stream = std::make_unique<capture::SampledStream>(std::move(sampler),
                                                         monitor.get());
  for (auto& tap : taps_) tap->add_consumer(stream.get());
  sampled_streams_.push_back(std::move(stream));
  sampled_monitors_.push_back(std::move(monitor));
  return *sampled_monitors_.back();
}

void DiscoveryEngine::add_tap_consumer(sim::PacketObserver* consumer) {
  for (auto& tap : taps_) tap->add_consumer(consumer);
}

std::size_t DiscoveryEngine::shard_count() const {
  return pipeline_ ? pipeline_->shard_count() : 1;
}

void DiscoveryEngine::run() {
  SVCDISC_TRACE_SPAN("engine.run");
  if (pipeline_) {
    pipeline_->start(config_.pool ? *config_.pool : *owned_pool_);
  }
  {
    SVCDISC_TRACE_SPAN("engine.start");
    if (!campus_.started()) campus_.start();
  }
  // The campaign proceeds in one-day phases. The simulator processes
  // events in time order either way, so chunking is behaviour-identical
  // to a single run_until — it exists to give the trace timeline one
  // "engine.step" span per simulated day (where did the wall time go?).
  auto& sim = campus_.simulator();
  const util::TimePoint end = util::kEpoch + campus_.config().duration;
  const util::Duration step = util::days(1);
  while (sim.now() < end) {
    const util::TimePoint target = std::min(sim.now() + step, end);
    SVCDISC_TRACE_SPAN_AT("engine.step", target.usec);
    sim.run_until(target);
  }
  {
    SVCDISC_TRACE_SPAN("engine.flush");
    // Release any packets still parked in reorder delay lines, so the
    // conservation ledger balances (held == 0 after a campaign).
    for (auto& imp : impairments_) imp->flush();
  }
  // No scan follows the campaign: hand the reusable outcome buffer back
  // before the caller's analysis allocates.
  prober_->release_scan_buffer();
  if (pipeline_) {
    SVCDISC_TRACE_SPAN("engine.merge");
    pipeline_->finish(*monitor_, excluded_monitor_.get(),
                      config_.provenance);
  }
  // Scale-universe gauges: all deterministic (materialization happens on
  // the single simulator thread), so they are safe inside the golden,
  // thread-count-compared metrics.json — and only present when a
  // universe exists, so existing scenario goldens carry no new keys.
  if (config_.metrics && campus_.universe()) {
    const host::ScaleUniverse& u = *campus_.universe();
    config_.metrics->gauge("scale.universe_addresses")
        .set(static_cast<std::int64_t>(u.universe_size()));
    config_.metrics->gauge("scale.materialized_addresses")
        .set(static_cast<std::int64_t>(u.materialized_count()));
    config_.metrics->gauge("scale.replies_sent")
        .set(static_cast<std::int64_t>(u.replies_sent()));
    config_.metrics->gauge("scale.universe_bytes")
        .set(static_cast<std::int64_t>(u.memory_bytes()));
  }
  if (analysis::StreamingAnalytics* stream = config_.streaming) {
    SVCDISC_TRACE_SPAN("engine.stream_finish");
    stream->finish(end);
    // Table-side gauges live here (not in the analytics layer): the
    // sketch-backed monitor table is the engine's, and like the scale.*
    // gauges these keys only appear when the feature is on.
    if (config_.metrics) {
      config_.metrics->gauge("stream.table_bytes")
          .set(static_cast<std::int64_t>(monitor_->table().memory_bytes()));
      config_.metrics->gauge("stream.table_services")
          .set(static_cast<std::int64_t>(monitor_->table().size()));
    }
  }
}

}  // namespace svcdisc::core
