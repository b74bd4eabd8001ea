// External-scan detection (paper §4.3).
//
// "We eliminate any host which attempts to open TCP connections to 100 or
// more unique IP addresses on our network within 12 hours and receives
// TCP RST responses from at least 100 of these contacted hosts."
//
// The detector tallies, per external source and per 12-hour window, the
// unique internal targets it SYNs and the unique internal hosts that
// answer it with RST. A source crossing both thresholds in one window is
// flagged permanently. Flagged sources can then be excluded from passive
// discovery to measure how much external scanning helps (Figure 4).
#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.h"
#include "net/packet.h"
#include "sim/node.h"
#include "util/flat_hash.h"
#include "util/metrics.h"
#include "util/sim_time.h"

namespace svcdisc::passive {

struct ScanDetectorConfig {
  /// Unique internal targets a source must SYN within one window.
  std::uint32_t target_threshold{100};
  /// Unique internal hosts that must RST the source within one window.
  std::uint32_t rst_threshold{100};
  /// Window length.
  util::Duration window{util::hours(12)};
};

class ScanDetector final : public sim::PacketObserver {
 public:
  /// `is_internal` classifies addresses as on-campus. The detector only
  /// examines TCP packets crossing in either direction.
  using InternalPredicate = bool (*)(net::Ipv4, const void* ctx);

  ScanDetector(ScanDetectorConfig config,
               std::vector<net::Prefix> internal_prefixes);

  // sim::PacketObserver
  void observe(const net::Packet& p) override;

  /// True when `src` has been flagged as a scanner.
  bool is_scanner(net::Ipv4 src) const { return scanners_.contains(src); }
  /// All flagged scanner sources, in flagging order.
  const util::FlatSet<net::Ipv4>& scanners() const { return scanners_; }
  std::size_t scanner_count() const { return scanners_.size(); }

  /// Registers `<prefix>.packets_seen` and `<prefix>.scanners_flagged`
  /// counters, mirroring subsequent activity.
  void attach_metrics(util::MetricsRegistry& registry,
                      std::string_view prefix);

 private:
  /// Window tallies of one unflagged source.
  struct SourceCounts {
    std::uint32_t targets{0};   ///< unique internal targets SYNed
    std::uint32_t rst_from{0};  ///< unique internal hosts that RSTed it
  };

  bool is_internal(net::Ipv4 addr) const;
  void roll_window(util::TimePoint t);
  /// Records `internal` against `source` in `pairs` (SYN targets or RST
  /// senders); only a new pair bumps `source`'s count and re-checks the
  /// thresholds.
  void tally(util::FlatSet<std::uint64_t>& pairs, net::Ipv4 source,
             net::Ipv4 internal, bool rst, util::TimePoint t);
  static std::uint64_t pair_key(net::Ipv4 source, net::Ipv4 internal) {
    return (std::uint64_t{source.value()} << 32) | internal.value();
  }

  ScanDetectorConfig config_;
  std::vector<net::Prefix> internal_;
  util::FlatSet<net::Ipv4> scanners_;

  // Tumbling-window state, cleared at each window boundary: the
  // (source, target) and (source, RST sender) pairs seen so far plus
  // each source's pair counts. A burst scan (minutes) always lands
  // inside one window; a scan straddling a boundary is still caught once
  // its post-boundary portion crosses the thresholds, which the paper's
  // own 12-hour bucketing also requires. Pairs of a flagged source stay
  // behind unread: flagged sources return before any lookup.
  util::FlatSet<std::uint64_t> syn_pairs_;
  util::FlatSet<std::uint64_t> rst_pairs_;
  util::FlatMap<net::Ipv4, SourceCounts> counts_;
  std::int64_t current_window_{0};
  util::Counter* m_packets_{nullptr};
  util::Counter* m_flagged_{nullptr};
};

}  // namespace svcdisc::passive
