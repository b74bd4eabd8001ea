// Budgeted adaptive prober (DESIGN.md §16): GPS-style priors + LZR-style
// verification, against the paper's fixed exhaustive sweep.
//
// Instead of walking every (address x port) pair, a scan drains a
// priority queue of candidates — highest expected yield first — under an
// explicit probe budget:
//   * candidates seeded from passive observations (SYN-ACK / UDP service
//     traffic crossing the border taps, collected by an inner
//     PacketObserver) always rank first: something out there already
//     spoke to that (addr, port), including ports outside the scan's
//     configured port list (LZR: many services live on unexpected ports);
//   * the remaining target x port grid is scored by ScanPriors (global
//     port popularity, per-/24 affinity with empirical-Bayes shrinkage,
//     cross-port conditionals), updated online from every outcome.
//
// The grid is never materialized. The affinity term depends only on the
// (/24, port) class's prior tally, so classes drain through cursors from
// one queue entry per (port, tally) group; the conditional term, non-zero
// only on addresses with a confirmed service, rides a small side heap of
// (address, port) boosts. A pop costs O(log groups) amortized and memory
// is O(targets + classes + opens) — DESIGN.md §16.
//
// Every TCP SYN-ACK then faces an LZR-style second stage before it may
// count as a service: an immediate ACK + payload "data probe" that a
// real service answers with data and a DPI middlebox / tarpit — which
// SYN-ACKs everything but never completes an exchange — does not.
// Unanswered verifications demote to ProbeStatus::kUnverified and never
// reach the discovery table, so middlebox_dpi-style hosts stop inflating
// active counts.
//
// Determinism: the passive feed and all prior updates run on the
// simulator thread in simulated-time order, so scan artifacts are a
// pure function of the campaign's config and seed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "active/priors.h"
#include "active/prober.h"

namespace svcdisc::active {

struct AdaptiveConfig {
  /// Maximum first-stage probes per scan (0 = unlimited). Verification
  /// data probes ride for free: they are only ever sent to endpoints
  /// that already answered, a vanishing share of the sweep cost.
  std::uint64_t probe_budget{0};
  /// LZR-style second-stage verification of every TCP SYN-ACK. Off, a
  /// SYN-ACK resolves kOpen immediately (the fixed prober's rule).
  bool verify{true};
  /// Empirical-Bayes pseudo-count of the per-subnet prior.
  double subnet_shrinkage{8.0};
};

class AdaptiveProber final : public ProberBase {
 public:
  AdaptiveProber(sim::Network& network, ProberConfig config,
                 AdaptiveConfig adaptive);

  void start_scan(ScanSpec spec,
                  std::function<void(const ScanRecord&)> on_complete = {})
      override;

  /// Base counters plus the adaptive.* set: budget (gauge), budget_spent,
  /// yield_open, passive_seeds_probed, verify_probes_sent,
  /// verify_confirmed, middlebox_demotions, priors_entropy_millinats
  /// (gauge), rank_pops, rank_repushes. Only registered here, so engines
  /// running the fixed prober export no adaptive keys.
  void attach_metrics(util::MetricsRegistry& registry,
                      std::string_view prefix) override;

  /// Passive seeding surface. The feed observer is attached to every
  /// border tap by the engine; hints accumulate across scans.
  sim::PacketObserver& passive_feed() { return feed_; }
  /// Internal prefixes (to recognize outbound service evidence) and the
  /// UDP service ports worth seeding from (empty = ignore UDP traffic).
  void configure_feed(std::vector<net::Prefix> internal,
                      std::vector<net::Port> udp_ports);
  /// Direct hint injection (tests, warm starts from a loaded table).
  void note_passive(const passive::ServiceKey& key);
  /// Seeds one hint per discovered service, in first-seen order.
  void seed_from_table(const passive::ServiceTable& table);

  const ScanPriors& priors() const { return priors_; }
  std::uint64_t budget_spent_total() const { return budget_spent_total_; }
  std::uint64_t seeds_probed_total() const { return seeds_probed_total_; }
  std::uint64_t verify_sent_total() const { return verify_sent_total_; }
  std::uint64_t verify_confirmed_total() const {
    return verify_confirmed_total_;
  }
  /// SYN-ACK endpoints that failed data-exchange verification.
  std::uint64_t demotions_total() const { return demotions_total_; }
  std::size_t hint_count() const { return hints_.size(); }
  /// Ranking work: entries popped off the ranking heaps, and the subset
  /// re-pushed because a lazy rescore found them stale.
  std::uint64_t rank_pops_total() const { return rank_pops_total_; }
  std::uint64_t rank_repushes_total() const { return rank_repushes_total_; }

  // sim::PacketSink — probe responses and verification replies.
  void on_packet(const net::Packet& p) override;

  // sim::TimerTarget — pacing ticks (tag = machine index) + finalize.
  void on_timer(std::uint64_t tag) override;

 private:
  /// The tap-side hint collector. A nested observer (instead of deriving
  /// AdaptiveProber from PacketObserver) keeps the prober's PacketSink
  /// surface — which receives *addressed* probe replies — cleanly apart
  /// from the promiscuous tap feed.
  class Feed final : public sim::PacketObserver {
   public:
    explicit Feed(AdaptiveProber& owner) : owner_(owner) {}
    void observe(const net::Packet& p) override;

   private:
    AdaptiveProber& owner_;
  };

  /// 256 bits indexed by an address's last octet: one /24's worth.
  using OctetBits = std::array<std::uint64_t, 4>;
  /// One (port, proto) column of the scan grid.
  struct Slot {
    net::Port port{0};
    net::Proto proto{net::Proto::kTcp};
  };
  /// The distinct targets of one /24, in sweep order, are
  /// order_[begin, end).
  struct Subnet {
    std::uint32_t begin{0};
    std::uint32_t end{0};
  };
  /// The ranking unit: every target of one /24 on one slot. A class's
  /// affinity score is fixed by its prior tally, so it lives in the
  /// TallyGroup of that tally and drains through a cursor over its
  /// subnet's targets.
  struct Class {
    std::uint32_t group{kNoGroup};  ///< kNoGroup once exhausted
    std::uint32_t stamp{0};         ///< bumps on leaving a group
    std::uint32_t cursor{0};        ///< next position in the subnet
    OctetBits probed{};             ///< targets already probed this scan
  };
  /// A class's entry in its group's min-heap, keyed by head position.
  struct Member {
    std::uint64_t pos{0};
    std::uint32_t cls{0};
    std::uint32_t stamp{0};
  };
  /// All classes of one slot sharing one (open, probed) tally: they
  /// score alike at every moment, so the group is a single queue entry
  /// that drains its classes in sweep order.
  struct TallyGroup {
    std::uint32_t slot{0};
    ScanPriors::Tally tally{};
    std::vector<Member> members;  ///< min-heap on pos; stale entries lazy
    std::uint32_t live{0};        ///< classes currently in the group
    std::uint32_t version{0};     ///< the live queue entry's version
    bool queued{false};
    std::uint64_t queued_pos{0};  ///< head position of the live entry
  };
  struct GroupKey {
    std::uint32_t slot{0};
    ScanPriors::Tally tally{};
    bool operator==(const GroupKey&) const = default;
  };
  struct GroupKeyHash {
    std::size_t operator()(const GroupKey& k) const noexcept {
      return util::hash_mix((k.tally.probed << 20) ^ (k.tally.open << 40) ^
                            k.slot);
    }
  };
  /// A ranking-queue entry. `pos` is the candidate's sweep position
  /// (target index x slots + slot), the tie-break that makes an
  /// untrained prior drain in sweep order. Group entries carry the group
  /// id and version; boost entries carry the candidate's class as id.
  struct Rank {
    double score{0.0};
    std::uint64_t pos{0};
    std::uint32_t id{0};
    std::uint32_t version{0};
  };
  /// A candidate picked for probing.
  struct Pick {
    passive::ServiceKey key{};
    bool seeded{false};
  };
  struct VerifyState {
    std::size_t outcome{0};      ///< index into current_.outcomes
    util::TimePoint sent{};      ///< data-probe send time
  };

  static constexpr std::uint32_t kNoGroup = ~std::uint32_t{0};

  void observe_passive(const net::Packet& p);
  void build_ranking();
  void release_ranking();
  std::optional<std::uint32_t> slot_of(net::Port port,
                                       net::Proto proto) const;
  std::optional<std::uint32_t> subnet_of(net::Ipv4 addr) const;
  /// Index of `addr` in spec_.targets, or nullopt if it is no target.
  std::optional<std::uint32_t> target_index(std::uint32_t subnet,
                                            net::Ipv4 addr) const;
  /// Head position of a class, advancing its cursor past targets a seed
  /// or boost already probed; nullopt once exhausted.
  std::optional<std::uint64_t> class_head(std::uint32_t cls);
  /// Places a class in the group of its current prior tally.
  void file_class(std::uint32_t cls);
  void leave_group(Class& c);
  std::uint32_t group_for(std::uint32_t slot, const ScanPriors::Tally& t);
  void push_member(TallyGroup& g, Member m);
  Member pop_member(TallyGroup& g);
  void push_rank(std::vector<Rank>& queue, const Rank& r);
  void pop_rank(std::vector<Rank>& queue);
  /// Lazy rescore of a queue's top: re-pushes it at `fresh` (and returns
  /// true) when that ranks behind the best of the rest.
  bool stale_behind_runner_up(std::vector<Rank>& queue, const Rank& fresh);
  double group_score(const TallyGroup& g) const;
  /// Head of a group's best class (dropping stale members); nullopt
  /// when the group has emptied.
  std::optional<std::uint64_t> group_head(TallyGroup& g);
  /// Fresh rank of the best group / boost, after lazy rescoring; its
  /// entry is left on top of its queue.
  std::optional<Rank> best_group();
  std::optional<Rank> best_boost();
  /// Queues addr's unprobed grid slots that a cross-port conditional
  /// lifts.
  void push_boosts(net::Ipv4 addr);
  passive::ServiceKey key_at(std::uint64_t pos) const;
  void mark_probed(const passive::ServiceKey& key);
  /// Next candidate: seeds in observation order, then the better of the
  /// best tally group and the best conditional boost.
  std::optional<Pick> pop_best();
  void send_next(std::size_t machine);
  void send_verify(const net::Packet& syn_ack);
  void confirm_open(const passive::ServiceKey& key,
                    std::size_t outcome_index);
  void demote(const passive::ServiceKey& key, std::size_t outcome_index);
  void finalize_scan();
  void arm_finalize(util::TimePoint at);

  void note_outcome(const ProbeOutcome& outcome) override;

  AdaptiveConfig adaptive_;
  Feed feed_;
  std::vector<net::Prefix> internal_;
  util::FlatSet<net::Port> udp_seed_ports_;
  /// Accumulated passive hints, deduped, in first-observed order (the
  /// canonical producer order the seeding pass replays).
  util::FlatSet<passive::ServiceKey, passive::ServiceKeyHash> hints_;
  ScanPriors priors_;

  // Per-scan ranking state; O(targets + classes + opens), released when
  // the last machine stops drawing.
  std::vector<passive::ServiceKey> seeds_;  ///< hint snapshot, in order
  std::size_t next_seed_{0};
  std::vector<Slot> slots_;
  util::FlatMap<std::uint32_t, std::uint32_t> slot_index_;
  std::vector<std::uint32_t> order_;  ///< distinct target indices by /24
  std::vector<Subnet> subnets_;
  util::FlatMap<std::uint32_t, std::uint32_t> subnet_index_;
  std::vector<Class> classes_;  ///< subnet-major: subnet x slots + slot
  std::vector<TallyGroup> groups_;
  util::FlatMap<GroupKey, std::uint32_t, GroupKeyHash> group_index_;
  std::vector<Rank> group_queue_;  ///< max-heap of live tally groups
  std::vector<Rank> boost_queue_;  ///< max-heap of conditional boosts
  std::uint64_t budget_left_{0};
  std::vector<char> machine_done_;
  std::size_t machines_done_{0};
  /// SYN-ACKed endpoints awaiting the data-probe verdict.
  util::FlatMap<passive::ServiceKey, VerifyState, passive::ServiceKeyHash>
      verifying_;

  // Cross-scan totals.
  std::uint64_t budget_spent_total_{0};
  std::uint64_t seeds_probed_total_{0};
  std::uint64_t verify_sent_total_{0};
  std::uint64_t verify_confirmed_total_{0};
  std::uint64_t demotions_total_{0};
  std::uint64_t rank_pops_total_{0};
  std::uint64_t rank_repushes_total_{0};
  std::uint64_t rank_pops_flushed_{0};  ///< share already in the metrics
  std::uint64_t rank_repushes_flushed_{0};

  // Adaptive metrics (null until attach_metrics).
  util::Gauge* m_budget_{nullptr};
  util::Counter* m_budget_spent_{nullptr};
  util::Counter* m_yield_open_{nullptr};
  util::Counter* m_seeds_probed_{nullptr};
  util::Counter* m_verify_sent_{nullptr};
  util::Counter* m_verify_confirmed_{nullptr};
  util::Counter* m_demotions_{nullptr};
  util::Gauge* m_entropy_{nullptr};
  util::Counter* m_rank_pops_{nullptr};
  util::Counter* m_rank_repushes_{nullptr};
};

}  // namespace svcdisc::active
