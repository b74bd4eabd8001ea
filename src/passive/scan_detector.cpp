#include "passive/scan_detector.h"

#include "util/trace.h"

namespace svcdisc::passive {

ScanDetector::ScanDetector(ScanDetectorConfig config,
                           std::vector<net::Prefix> internal_prefixes)
    : config_(config), internal_(std::move(internal_prefixes)) {}

bool ScanDetector::is_internal(net::Ipv4 addr) const {
  for (const auto& prefix : internal_) {
    if (prefix.contains(addr)) return true;
  }
  return false;
}

void ScanDetector::roll_window(util::TimePoint t) {
  // Floored division so timestamps left of the epoch (negative clock
  // skew on an impaired tap) get their own window instead of sharing
  // window 0 with the first real window.
  const std::int64_t window = util::floor_div(t.usec, config_.window.usec);
  if (window != current_window_) {
    SVCDISC_TRACE_INSTANT("scan_detector.window_roll", t.usec);
    current_window_ = window;
    syn_pairs_.clear();
    rst_pairs_.clear();
    counts_.clear();
  }
}

void ScanDetector::attach_metrics(util::MetricsRegistry& registry,
                                  std::string_view prefix) {
  const std::string base(prefix);
  m_packets_ = &registry.counter(base + ".packets_seen");
  m_flagged_ = &registry.counter(base + ".scanners_flagged");
}

void ScanDetector::observe(const net::Packet& p) {
  if (p.proto != net::Proto::kTcp) return;
  if (m_packets_) m_packets_->inc();
  roll_window(p.time);

  if (p.flags.is_syn_only()) {
    // Inbound connection attempt: external source -> internal target.
    if (is_internal(p.src) || !is_internal(p.dst)) return;
    if (scanners_.contains(p.src)) return;  // already flagged
    tally(syn_pairs_, p.src, p.dst, /*rst=*/false, p.time);
  } else if (p.flags.rst()) {
    // Refusal flowing back out: internal host -> external source.
    if (!is_internal(p.src) || is_internal(p.dst)) return;
    if (scanners_.contains(p.dst)) return;
    tally(rst_pairs_, p.dst, p.src, /*rst=*/true, p.time);
  }
}

void ScanDetector::tally(util::FlatSet<std::uint64_t>& pairs,
                         net::Ipv4 source, net::Ipv4 internal, bool rst,
                         util::TimePoint t) {
  if (!pairs.insert(pair_key(source, internal))) return;
  SourceCounts& counts = counts_[source];
  ++(rst ? counts.rst_from : counts.targets);
  if (counts.targets >= config_.target_threshold &&
      counts.rst_from >= config_.rst_threshold) {
    SVCDISC_TRACE_INSTANT("scan_detector.flagged", t.usec);
    scanners_.insert(source);
    if (m_flagged_) m_flagged_->inc();
  }
}

}  // namespace svcdisc::passive
