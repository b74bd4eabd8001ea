// The active prober: Nmap-style half-open TCP and generic UDP scanning
// (paper §2.1, §3.1).
//
// A scan walks (target address x port), pacing probes with a token
// bucket, optionally splitting the target space across several internal
// prober machines (the paper used two for the large datasets). Probe
// interpretation:
//   * TCP: SYN-ACK -> open; RST -> closed; no answer -> filtered
//     (firewall or dead address);
//   * UDP: UDP reply -> definitely open; ICMP port-unreachable ->
//     definitely closed; no answer -> possibly open IF the host proved
//     alive on some other port, else no-host (§4.5).
// Probers are internal campus machines, so probe traffic never crosses
// the border and is invisible to passive monitoring.
//
// Two probers share the ProberBase plumbing (DESIGN.md §16):
//   * Prober — the paper's fixed exhaustive sweep (this file);
//   * AdaptiveProber — a budgeted priority-queue prober with learned
//     priors and LZR-style verification (active/adaptive_prober.h).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "active/rate_limiter.h"
#include "net/ipv4.h"
#include "net/packet.h"
#include "net/ports.h"
#include "passive/service_table.h"
#include "sim/network.h"
#include "sim/node.h"
#include "util/flat_hash.h"
#include "util/metrics.h"
#include "util/sim_time.h"

namespace svcdisc::active {

/// Outcome of one probe.
enum class ProbeStatus : std::uint8_t {
  kOpen,        ///< TCP SYN-ACK received
  kClosed,      ///< TCP RST or ICMP port-unreachable received
  kFiltered,    ///< TCP: no response (firewall or no host)
  kOpenUdp,     ///< UDP reply received
  kMaybeOpen,   ///< UDP: no response, host known alive
  kNoHost,      ///< UDP: no response from any probed port on the host
  kUnverified,  ///< TCP: SYN-ACK received but the LZR-style data probe
                ///< went unanswered — middlebox/tarpit, not a service
  kPending,     ///< internal: awaiting response/timeout
};

struct ProbeOutcome {
  passive::ServiceKey key;
  ProbeStatus status{ProbeStatus::kPending};
  /// Send time while pending and for probes never answered (kFiltered,
  /// kMaybeOpen, kNoHost). Once a response resolves the probe it is the
  /// resolution time instead: the response's arrival, or under LZR
  /// verification the confirm/demote time. record_open() and the report
  /// read it as the discovery time.
  util::TimePoint when{};
};

/// One scan's full results: every probe outcome. Only the scan in flight
/// holds one; the completion hook (ProberBase::start_scan's
/// `on_complete`) is the one place a finished scan's outcomes can be
/// read, after which the prober keeps just its ScanSummary (DESIGN.md
/// §16, "Scan-record lifecycle").
struct ScanRecord {
  int index{0};
  util::TimePoint started{};
  util::TimePoint finished{};
  std::vector<ProbeOutcome> outcomes;
  /// Host-discovery bookkeeping (zero when the pre-pass was off).
  std::uint32_t hosts_pinged{0};
  std::uint32_t hosts_alive{0};

  /// Count of outcomes with the given status.
  std::size_t count(ProbeStatus status) const;
  /// Services found open (TCP open or UDP definitely open) in this scan.
  std::vector<passive::ServiceKey> open_services() const;
};

/// A service one scan found open, stamped as its ProbeOutcome::when.
struct OpenService {
  passive::ServiceKey key;
  util::TimePoint when{};
};

/// What a finished scan keeps once its outcomes are freed: sized by the
/// services it found, not by the probes it sent (a `dtcp1` scan's 78,090
/// outcomes fold into ~3,000 opens, ~51 KB).
struct ScanSummary {
  static constexpr std::size_t kStatuses =
      static_cast<std::size_t>(ProbeStatus::kPending) + 1;

  int index{0};
  util::TimePoint started{};
  util::TimePoint finished{};
  std::uint32_t hosts_pinged{0};
  std::uint32_t hosts_alive{0};
  /// Outcome count per ProbeStatus, indexed by its value.
  std::array<std::size_t, kStatuses> status_counts{};
  /// kOpen and kOpenUdp outcomes, in probe order.
  std::vector<OpenService> opens;
  /// Firewall confirmation inputs (core/firewall_confirm.h). Addresses
  /// that answered one TCP probe with a RST and left another unanswered,
  /// ascending.
  std::vector<net::Ipv4> mixed_tcp_addrs;
  /// The kFiltered outcomes whose service the fold's `known` table had
  /// discovered, in probe order.
  std::vector<passive::ServiceKey> kept_filtered;

  /// Folds a finished record. kept_filtered holds the unanswered TCP
  /// probes of services `known` has discovered; null keeps none.
  static ScanSummary of(const ScanRecord& record,
                        const passive::ServiceTable* known = nullptr);

  std::size_t count(ProbeStatus status) const {
    return status_counts[static_cast<std::size_t>(status)];
  }
  /// Probes the scan sent: its outcome count.
  std::size_t probes() const;
  /// Services found open in this scan, in probe order.
  std::vector<passive::ServiceKey> open_services() const;
};

struct ScanSpec {
  /// Addresses to probe, in probe order.
  std::vector<net::Ipv4> targets;
  std::vector<net::Port> tcp_ports;
  std::vector<net::Port> udp_ports;
  /// Sustained probe rate per prober machine.
  double probes_per_sec{12.0};
  /// How long to wait before declaring "no response".
  util::Duration timeout{util::seconds(3)};
  /// Ping-based host discovery: an ICMP echo pre-pass per address, with
  /// port probes sent only to responders. The paper omits this
  /// optimization from its scans ("we omit this optimization", §5.4);
  /// it speeds scans of sparse space at the cost of missing ping-silent
  /// hosts — quantified by bench_ablation_hostdiscovery.
  bool host_discovery{false};
  /// Service-specific UDP probes: send a well-formed application request
  /// instead of an empty datagram, so implementations that ignore
  /// malformed input still answer. Nmap supports this; the paper was
  /// "not allowed to use that service due to potential privacy concerns"
  /// (§4.5). Turns most "possibly open" verdicts into definite ones —
  /// quantified by bench_ablation_udp_probes.
  bool udp_service_probes{false};
};

/// The in-flight scan's unanswered probes, shared by both probers
/// (DESIGN.md §16): one open-addressing table whose slots hold an
/// outcome's position in the scan's outcome vector plus one (0 = empty,
/// ~0 = tombstone). Keys are compared through `outcomes[pos].key`, so
/// nothing is stored twice: a million-address sweep keeps ~10 M probes
/// pending until its timeout at 4 bytes of slot each.
///
/// Probers presize the table once per scan for the probes they plan to
/// send, so a scan never rehashes; inserts past the estimate still
/// regrow it, counted by regrowths(). A probe's outcome must sit at its
/// position before the next insert (a regrowth rehashes through the
/// outcomes). References into the outcome vector are not held, so it may
/// reallocate freely.
class PendingIndex {
 public:
  /// Most outcome positions a scan may hold: position + 1 must fit in a
  /// 32-bit slot without colliding with the tombstone.
  static constexpr std::uint64_t kMaxPositions = 0xFFFFFFFEULL;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit PendingIndex(const std::vector<ProbeOutcome>& outcomes)
      : outcomes_(outcomes) {}

  std::size_t size() const { return live_; }
  /// Drops every entry and frees the slots.
  void clear();
  /// Sizes an empty table for `inserts` insertions without regrowth.
  void reserve(std::size_t inserts);

  /// Position of `key`'s pending probe, or npos.
  std::size_t find(const passive::ServiceKey& key) const {
    const std::size_t slot = slot_of(key);
    return slot == npos ? npos : slots_[slot] - 1;
  }
  /// Marks `key` pending at `pos` unless it already is pending (then
  /// nothing changes). Returns true when inserted.
  bool emplace(const passive::ServiceKey& key, std::size_t pos) {
    return insert(key, pos, /*replace=*/false);
  }
  /// Marks `key` pending at `pos`, replacing an entry already pending.
  void assign(const passive::ServiceKey& key, std::size_t pos) {
    insert(key, pos, /*replace=*/true);
  }
  /// Removes `key`'s entry, leaving a tombstone, and returns the position
  /// it held; npos (and no change) when `key` is not pending.
  std::size_t erase(const passive::ServiceKey& key) {
    const std::size_t slot = slot_of(key);
    if (slot == npos) return npos;
    const std::size_t pos = slots_[slot] - 1;
    slots_[slot] = kTombstone;
    --live_;
    return pos;
  }

  /// Rehashes forced by inserts beyond the reserved capacity, over the
  /// table's lifetime.
  std::uint64_t regrowths() const { return regrowths_; }

 private:
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kTombstone = ~std::uint32_t{0};

  static std::size_t hash(const passive::ServiceKey& key) {
    return passive::ServiceKeyHash{}(key);
  }
  std::size_t slot_of(const passive::ServiceKey& key) const {
    if (slots_.empty()) return npos;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      const std::uint32_t s = slots_[i];
      if (s == kEmpty) return npos;
      if (s != kTombstone && outcomes_[s - 1].key == key) return i;
    }
  }
  bool insert(const passive::ServiceKey& key, std::size_t pos,
              bool replace) {
    if ((used_ + 1) * 4 > slots_.size() * 3) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t target = npos;  // first tombstone on the probe path
    std::size_t i = hash(key) & mask;
    for (;; i = (i + 1) & mask) {
      const std::uint32_t s = slots_[i];
      if (s == kEmpty) break;
      if (s == kTombstone) {
        if (target == npos) target = i;
      } else if (outcomes_[s - 1].key == key) {
        if (replace) slots_[i] = static_cast<std::uint32_t>(pos + 1);
        return false;
      }
    }
    if (target == npos) {
      target = i;
      ++used_;
    }
    slots_[target] = static_cast<std::uint32_t>(pos + 1);
    ++live_;
    return true;
  }
  void grow();
  void rehash(std::size_t capacity);

  const std::vector<ProbeOutcome>& outcomes_;
  std::vector<std::uint32_t> slots_;  ///< power-of-two size, or empty
  std::size_t live_{0};
  std::size_t used_{0};  ///< live slots plus tombstones
  std::uint64_t regrowths_{0};
};

struct ProberConfig {
  /// Internal source addresses; the target list is split evenly across
  /// them and the machines scan in parallel (paper: two machines for the
  /// 16,130-address datasets).
  std::vector<net::Ipv4> source_addrs;
};

/// Shared plumbing of the fixed and adaptive probers: network
/// attachment, the cumulative discovery table, completed-scan summaries,
/// discovery callbacks, probe bookkeeping and the base metric set.
/// Derived classes implement start_scan / on_packet / on_timer — the
/// scan strategy — on top of the protected state below.
class ProberBase : public sim::PacketSink, public sim::TimerTarget {
 public:
  ProberBase(sim::Network& network, ProberConfig config);
  ~ProberBase() override;

  ProberBase(const ProberBase&) = delete;
  ProberBase& operator=(const ProberBase&) = delete;

  /// Starts a scan; `on_complete` fires when every probe has resolved,
  /// with the full record: the only view of the scan's outcomes. The
  /// record is valid until the hook returns or starts another scan.
  /// Only one scan may be in flight at a time.
  virtual void start_scan(
      ScanSpec spec, std::function<void(const ScanRecord&)> on_complete = {}) = 0;

  bool scan_in_progress() const { return in_progress_; }

  /// Every completed scan's summary, oldest first. A scan's summary is
  /// already here when its completion hook fires.
  const std::vector<ScanSummary>& scans() const { return scans_; }

  /// Each summary keeps the unanswered TCP probes of services this table
  /// has discovered by the scan's end (ScanSummary::kept_filtered, for
  /// firewall confirmation's activity method). Not owned; null (the
  /// default) keeps none.
  const passive::ServiceTable* keep_filtered_known_to{nullptr};

  /// Cumulative first-open discoveries across all scans (drives the
  /// active discovery curves).
  const passive::ServiceTable& table() const { return table_; }

  /// Fires on each first-time discovery of an open service.
  std::function<void(const passive::ServiceKey&, util::TimePoint)>
      on_discovery;

  /// Fires on *every* open probe response — first discoveries and
  /// re-confirmations alike. `udp` distinguishes kOpenUdp from kOpen.
  /// Feeds the provenance ledger.
  std::function<void(const passive::ServiceKey&, util::TimePoint, bool udp)>
      on_open_response;

  /// Registers `<prefix>.` counters (probes_tcp_sent, probes_udp_sent,
  /// pings_sent, responses_received, discoveries, scans_completed) plus
  /// the pacing buckets' `<prefix>.rate_limiter.grants/.deferrals`.
  /// Derived probers may extend the set.
  virtual void attach_metrics(util::MetricsRegistry& registry,
                              std::string_view prefix);

  /// Frees the outcome buffer that finished scans leave for the next one
  /// to reuse (a `scale1m` sweep's is ~126 MB). No-op while a scan is in
  /// flight.
  void release_scan_buffer();

  /// Pending-index rehashes forced by a scan outgrowing its presized
  /// table (0 when every scan's estimate held).
  std::uint64_t pending_regrowths() const { return pending_.regrowths(); }

 protected:
  /// Timer tag above any realistic machine index.
  static constexpr std::uint64_t kTimerFinalize = ~std::uint64_t{0};

  /// Opens the in-flight ScanRecord (index, start time, trace span).
  /// Derived start_scan implementations call this exactly once, with an
  /// upper bound on the scan's probes: a bound past
  /// PendingIndex::kMaxPositions throws std::length_error before any
  /// state changes.
  void begin_scan_record(ScanSpec spec,
                         std::function<void(const ScanRecord&)> on_complete,
                         std::uint64_t max_probes);
  /// Targets x (TCP + UDP ports) of `spec`, saturating.
  static std::uint64_t sweep_size(const ScanSpec& spec);
  /// Closes the in-flight record: stamps finish time, appends its
  /// summary to scans(), bumps metrics and fires on_complete with the
  /// full record. The outcome buffer keeps its capacity for the next
  /// scan, which clears it.
  void finish_scan_record();

  /// One fresh per-machine pacing bucket per source address (burst 1
  /// reproduces strict 1/rate spacing).
  void reset_buckets();

  /// Resolves the pending probe for `key` (no-op on late/duplicate
  /// responses). Open statuses record into the table and fire the
  /// discovery callbacks; every resolution reaches note_outcome().
  void resolve(const passive::ServiceKey& key, ProbeStatus status);
  /// The open-probe bookkeeping shared by resolve() and the adaptive
  /// prober's verification path: table discovery + callbacks + counters.
  void record_open(const ProbeOutcome& outcome, bool udp);
  /// Hook invoked for every resolved outcome (the adaptive prober's
  /// online prior updates). Default: nothing.
  virtual void note_outcome(const ProbeOutcome& outcome);

  /// Next client-side source port, cycling through 40000-60000.
  net::Port take_ephemeral();

  sim::Network& network_;
  ProberConfig config_;
  passive::ServiceTable table_;
  std::vector<ScanSummary> scans_;

  // In-flight scan state shared by both strategies.
  bool in_progress_{false};
  ScanSpec spec_;
  ScanRecord current_;
  std::function<void(const ScanRecord&)> on_complete_;
  PendingIndex pending_{current_.outcomes};  // must follow current_
  std::vector<TokenBucket> buckets_;  // per machine pacing
  net::Port next_ephemeral_{40000};

  // Optional metrics (null until attach_metrics).
  util::MetricsRegistry* metrics_{nullptr};
  std::string metrics_prefix_;
  util::Counter* m_probes_tcp_{nullptr};
  util::Counter* m_probes_udp_{nullptr};
  util::Counter* m_pings_{nullptr};
  util::Counter* m_responses_{nullptr};
  util::Counter* m_discoveries_{nullptr};
  util::Counter* m_scans_{nullptr};
};

/// The paper's fixed exhaustive sweep: every target address x the full
/// port list, in address-major, port-minor order.
class Prober final : public ProberBase {
 public:
  Prober(sim::Network& network, ProberConfig config);

  void start_scan(ScanSpec spec,
                  std::function<void(const ScanRecord&)> on_complete = {})
      override;

  // sim::PacketSink — receives probe responses.
  void on_packet(const net::Packet& p) override;

  // sim::TimerTarget — pacing ticks (tag = machine index) plus the two
  // phase-transition timeouts.
  void on_timer(std::uint64_t tag) override;

 private:
  static constexpr std::uint64_t kTimerBeginPortPhase = ~std::uint64_t{1};

  struct ProbeTask {
    net::Ipv4 addr{};
    net::Port port{0};
    net::Proto proto{net::Proto::kTcp};
  };
  /// One machine's share of the current phase. Tasks are never
  /// materialized: a 1M-address scan used to build a vector of every
  /// (addr, port) pair per machine up front; the plan is three integers
  /// and task_at() computes probe `cursor` on demand, in the identical
  /// address-major, port-minor order.
  struct MachinePlan {
    std::size_t first_target{0};  ///< index into *phase_targets_
    std::size_t target_count{0};
    std::size_t task_count{0};
  };

  void plan_phase(bool ping, std::size_t target_count);
  ProbeTask task_at(std::size_t machine, std::size_t cursor) const;
  void begin_port_phase();
  void send_next(std::size_t machine);
  void finalize_scan();

  std::vector<MachinePlan> plan_;    // per machine share of the phase
  std::vector<std::size_t> cursor_;  // per machine: next probe
  /// Targets of the current phase: spec_.targets, or alive_targets_
  /// after a host-discovery pre-pass. Both outlive the phase.
  const std::vector<net::Ipv4>* phase_targets_{nullptr};
  std::size_t machines_done_{0};
  // Host-discovery phase state.
  bool pinging_{false};
  util::FlatSet<net::Ipv4> alive_hosts_;
  std::vector<net::Ipv4> alive_targets_;
};

}  // namespace svcdisc::active
