#include "active/adaptive_prober.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/trace.h"

namespace svcdisc::active {
namespace {

/// Payload of the LZR-style verification data probe: a short generic
/// application banner request. The simulated stack only cares that
/// payload_len > 0 — genuine data reached the service.
constexpr std::uint16_t kVerifyPayload = 32;

std::uint32_t slot_code(net::Port port, net::Proto proto) {
  return (std::uint32_t{port} << 8) | static_cast<std::uint8_t>(proto);
}

bool has_octet(const std::array<std::uint64_t, 4>& bits, net::Ipv4 addr) {
  const std::uint32_t octet = addr.value() & 0xFF;
  return (bits[octet >> 6] >> (octet & 63)) & 1;
}

void set_octet(std::array<std::uint64_t, 4>& bits, net::Ipv4 addr) {
  const std::uint32_t octet = addr.value() & 0xFF;
  bits[octet >> 6] |= std::uint64_t{1} << (octet & 63);
}

/// Ranking order: higher score first; on ties the earlier sweep position
/// (then the lower id) — an untrained prior drains in sweep order.
template <typename R>
bool ranks_before(const R& a, const R& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.pos != b.pos) return a.pos < b.pos;
  return a.id < b.id;
}

/// Heap comparators ("a sits below b"): best rank / lowest head on top.
constexpr auto rank_after = [](const auto& a, const auto& b) {
  return ranks_before(b, a);
};
constexpr auto member_after = [](const auto& a, const auto& b) {
  return a.pos > b.pos;
};

}  // namespace

AdaptiveProber::AdaptiveProber(sim::Network& network, ProberConfig config,
                               AdaptiveConfig adaptive)
    : ProberBase(network, std::move(config)),
      adaptive_(adaptive),
      feed_(*this),
      priors_(adaptive.subnet_shrinkage) {}

void AdaptiveProber::attach_metrics(util::MetricsRegistry& registry,
                                    std::string_view prefix) {
  ProberBase::attach_metrics(registry, prefix);
  // Top-level adaptive.* keys (the scale.*/stream.* convention): only
  // registered by this override, so fixed-prober engines export none of
  // them and existing metric goldens stay byte-identical.
  m_budget_ = &registry.gauge("adaptive.budget");
  m_budget_spent_ = &registry.counter("adaptive.budget_spent");
  m_yield_open_ = &registry.counter("adaptive.yield_open");
  m_seeds_probed_ = &registry.counter("adaptive.passive_seeds_probed");
  m_verify_sent_ = &registry.counter("adaptive.verify_probes_sent");
  m_verify_confirmed_ = &registry.counter("adaptive.verify_confirmed");
  m_demotions_ = &registry.counter("adaptive.middlebox_demotions");
  m_entropy_ = &registry.gauge("adaptive.priors_entropy_millinats");
  m_rank_pops_ = &registry.counter("adaptive.rank_pops");
  m_rank_repushes_ = &registry.counter("adaptive.rank_repushes");
  m_budget_->set(static_cast<std::int64_t>(adaptive_.probe_budget));
}

void AdaptiveProber::configure_feed(std::vector<net::Prefix> internal,
                                    std::vector<net::Port> udp_ports) {
  internal_ = std::move(internal);
  udp_seed_ports_.clear();
  for (const net::Port p : udp_ports) udp_seed_ports_.insert(p);
}

void AdaptiveProber::note_passive(const passive::ServiceKey& key) {
  hints_.insert(key);
}

void AdaptiveProber::seed_from_table(const passive::ServiceTable& table) {
  for (const auto& [key, first_seen] : table.chronological()) {
    note_passive(key);
  }
}

void AdaptiveProber::Feed::observe(const net::Packet& p) {
  owner_.observe_passive(p);
}

void AdaptiveProber::observe_passive(const net::Packet& p) {
  const auto is_internal = [this](net::Ipv4 addr) {
    for (const net::Prefix& prefix : internal_) {
      if (prefix.contains(addr)) return true;
    }
    return false;
  };
  switch (p.proto) {
    case net::Proto::kTcp:
      // An outbound SYN-ACK is something inside answering a client — a
      // service hint on whatever port it spoke from, configured scan
      // port or not (LZR: services live on unexpected ports).
      if (!p.flags.is_syn_ack() || !is_internal(p.src)) return;
      hints_.insert({p.src, net::Proto::kTcp, p.sport});
      return;
    case net::Proto::kUdp:
      if (p.payload_len == 0 || !is_internal(p.src)) return;
      if (!udp_seed_ports_.contains(p.sport)) return;
      hints_.insert({p.src, net::Proto::kUdp, p.sport});
      return;
    default:
      return;
  }
}

void AdaptiveProber::start_scan(
    ScanSpec spec, std::function<void(const ScanRecord&)> on_complete) {
  // At most every seed plus the whole grid, capped by the budget.
  const std::uint64_t grid = sweep_size(spec);
  std::uint64_t max_probes = grid + hints_.size();
  if (max_probes < grid) max_probes = ~std::uint64_t{0};
  if (adaptive_.probe_budget != 0) {
    max_probes = std::min(max_probes, adaptive_.probe_budget);
  }
  begin_scan_record(std::move(spec), std::move(on_complete), max_probes);
  reset_buckets();
  build_ranking();
  budget_left_ = adaptive_.probe_budget == 0 ? ~std::uint64_t{0}
                                             : adaptive_.probe_budget;
  verifying_.clear();
  const std::size_t machines = config_.source_addrs.size();
  machine_done_.assign(machines, 0);
  machines_done_ = 0;
  if (m_budget_) m_budget_->set(static_cast<std::int64_t>(adaptive_.probe_budget));

  if (seeds_.empty() && classes_.empty()) {
    // Degenerate scan with no candidates: complete immediately.
    release_ranking();
    network_.simulator().after_timer(util::usec(0), this, kTimerFinalize);
    return;
  }
  for (std::size_t m = 0; m < machines; ++m) send_next(m);
}

void AdaptiveProber::build_ranking() {
  release_ranking();
  // Passive hints rank first, in first-observed order: something already
  // spoke to them. Snapshot at scan start; later hints wait a scan.
  seeds_.reserve(hints_.size());
  for (const passive::ServiceKey& hint : hints_) seeds_.push_back(hint);
  next_seed_ = 0;

  for (const net::Port port : spec_.tcp_ports) {
    if (slot_index_.emplace(slot_code(port, net::Proto::kTcp), slots_.size())
            .second) {
      slots_.push_back({port, net::Proto::kTcp});
    }
  }
  for (const net::Port port : spec_.udp_ports) {
    if (slot_index_.emplace(slot_code(port, net::Proto::kUdp), slots_.size())
            .second) {
      slots_.push_back({port, net::Proto::kUdp});
    }
  }

  // Bucket the distinct targets by /24 (subnets in first-appearance
  // order, sweep order within each) with a counting sort — one index per
  // target, the only per-address state the ranking keeps.
  const std::vector<net::Ipv4>& targets = spec_.targets;
  std::vector<std::uint32_t> subnet_of_target(targets.size(), kNoGroup);
  std::vector<OctetBits> seen;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto [it, fresh] = subnet_index_.emplace(
        targets[i].value() >> 8, static_cast<std::uint32_t>(subnets_.size()));
    const std::uint32_t s = it->second;
    if (fresh) {
      subnets_.emplace_back();
      seen.emplace_back();
    }
    if (has_octet(seen[s], targets[i])) continue;  // duplicate target
    set_octet(seen[s], targets[i]);
    subnet_of_target[i] = s;
    ++subnets_[s].end;
  }
  std::uint32_t next = 0;
  for (Subnet& sub : subnets_) {
    const std::uint32_t count = sub.end;
    sub.begin = sub.end = next;
    next += count;
  }
  order_.resize(next);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (subnet_of_target[i] == kNoGroup) continue;
    order_[subnets_[subnet_of_target[i]].end++] = static_cast<std::uint32_t>(i);
  }

  classes_.assign(subnets_.size() * slots_.size(), Class{});
  for (std::uint32_t c = 0; c < classes_.size(); ++c) file_class(c);
  // Addresses with services confirmed in earlier scans carry their
  // cross-port conditionals from the start.
  priors_.for_each_open_address([this](net::Ipv4 addr) { push_boosts(addr); });

  const std::uint64_t grid =
      seeds_.size() + std::uint64_t{order_.size()} * slots_.size();
  const std::uint64_t expect =
      adaptive_.probe_budget == 0
          ? grid
          : std::min<std::uint64_t>(adaptive_.probe_budget, grid);
  current_.outcomes.reserve(static_cast<std::size_t>(expect));
  pending_.reserve(static_cast<std::size_t>(expect));
}

void AdaptiveProber::release_ranking() {
  seeds_ = {};
  slots_ = {};
  slot_index_ = {};
  order_ = {};
  subnets_ = {};
  subnet_index_ = {};
  classes_ = {};
  groups_ = {};
  group_index_ = {};
  group_queue_ = {};
  boost_queue_ = {};
  if (m_rank_pops_) m_rank_pops_->inc(rank_pops_total_ - rank_pops_flushed_);
  if (m_rank_repushes_) {
    m_rank_repushes_->inc(rank_repushes_total_ - rank_repushes_flushed_);
  }
  rank_pops_flushed_ = rank_pops_total_;
  rank_repushes_flushed_ = rank_repushes_total_;
}

std::optional<std::uint32_t> AdaptiveProber::slot_of(net::Port port,
                                                     net::Proto proto) const {
  const auto it = slot_index_.find(slot_code(port, proto));
  if (it == slot_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> AdaptiveProber::subnet_of(net::Ipv4 addr) const {
  const auto it = subnet_index_.find(addr.value() >> 8);
  if (it == subnet_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> AdaptiveProber::target_index(
    std::uint32_t subnet, net::Ipv4 addr) const {
  const Subnet& sub = subnets_[subnet];
  for (std::uint32_t i = sub.begin; i < sub.end; ++i) {
    if (spec_.targets[order_[i]] == addr) return order_[i];
  }
  return std::nullopt;
}

passive::ServiceKey AdaptiveProber::key_at(std::uint64_t pos) const {
  const Slot& slot = slots_[pos % slots_.size()];
  return {spec_.targets[pos / slots_.size()], slot.proto, slot.port};
}

std::optional<std::uint64_t> AdaptiveProber::class_head(std::uint32_t cls) {
  Class& c = classes_[cls];
  const std::size_t slots = slots_.size();
  const Subnet& sub = subnets_[cls / slots];
  while (sub.begin + c.cursor < sub.end) {
    const std::uint32_t t = order_[sub.begin + c.cursor];
    if (!has_octet(c.probed, spec_.targets[t])) {
      return std::uint64_t{t} * slots + cls % slots;
    }
    ++c.cursor;
  }
  return std::nullopt;
}

std::uint32_t AdaptiveProber::group_for(std::uint32_t slot,
                                        const ScanPriors::Tally& tally) {
  const auto [it, fresh] = group_index_.emplace(
      GroupKey{slot, tally}, static_cast<std::uint32_t>(groups_.size()));
  const std::uint32_t id = it->second;
  if (fresh) {
    groups_.emplace_back();
    groups_.back().slot = slot;
    groups_.back().tally = tally;
  }
  return id;
}

void AdaptiveProber::file_class(std::uint32_t cls) {
  Class& c = classes_[cls];
  const std::optional<std::uint64_t> head = class_head(cls);
  std::uint32_t id = kNoGroup;
  if (head) {
    const std::uint32_t slot = cls % slots_.size();
    const Subnet& sub = subnets_[cls / slots_.size()];
    const net::Ipv4 any = spec_.targets[order_[sub.begin]];
    id = group_for(slot, priors_.subnet_tally(any, slots_[slot].port,
                                              slots_[slot].proto));
  }
  if (c.group == id) return;
  if (c.group != kNoGroup) leave_group(c);
  if (!head) return;  // exhausted
  TallyGroup& g = groups_[id];
  c.group = id;
  ++g.live;
  push_member(g, {*head, cls, c.stamp});
  if (!g.queued || *head < g.queued_pos) {
    // First entry, or one that supersedes a later-positioned entry.
    g.queued = true;
    g.queued_pos = *head;
    ++g.version;
    push_rank(group_queue_, {group_score(g), *head, id, g.version});
  }
}

void AdaptiveProber::leave_group(Class& c) {
  TallyGroup& g = groups_[c.group];
  if (--g.live == 0) g.members.clear();  // every entry left is stale
  c.group = kNoGroup;
  ++c.stamp;
}

void AdaptiveProber::push_member(TallyGroup& g, Member m) {
  if (g.members.size() >= 2 * std::size_t{g.live} + 64) {
    // Classes that left the group leave lazy entries behind; compact
    // them away so a group's heap stays O(live classes).
    std::erase_if(g.members, [this](const Member& e) {
      return e.stamp != classes_[e.cls].stamp;
    });
    std::make_heap(g.members.begin(), g.members.end(), member_after);
  }
  g.members.push_back(m);
  std::push_heap(g.members.begin(), g.members.end(), member_after);
}

AdaptiveProber::Member AdaptiveProber::pop_member(TallyGroup& g) {
  std::pop_heap(g.members.begin(), g.members.end(), member_after);
  const Member m = g.members.back();
  g.members.pop_back();
  ++rank_pops_total_;
  return m;
}

void AdaptiveProber::push_rank(std::vector<Rank>& queue, const Rank& r) {
  queue.push_back(r);
  std::push_heap(queue.begin(), queue.end(), rank_after);
}

void AdaptiveProber::pop_rank(std::vector<Rank>& queue) {
  std::pop_heap(queue.begin(), queue.end(), rank_after);
  queue.pop_back();
  ++rank_pops_total_;
}

bool AdaptiveProber::stale_behind_runner_up(std::vector<Rank>& queue,
                                            const Rank& fresh) {
  // Lazy rescore: a top entry whose fresh rank fell behind the best of
  // the rest is re-pushed at its fresh rank; otherwise it stands.
  const Rank& top = queue.front();
  if (!ranks_before(top, fresh) || queue.size() < 2) return false;
  const Rank& runner_up =
      queue.size() > 2 && ranks_before(queue[2], queue[1]) ? queue[2]
                                                           : queue[1];
  if (!ranks_before(runner_up, fresh)) return false;
  pop_rank(queue);
  push_rank(queue, fresh);
  ++rank_repushes_total_;
  return true;
}

double AdaptiveProber::group_score(const TallyGroup& g) const {
  return priors_.affinity(g.tally, slots_[g.slot].port, slots_[g.slot].proto);
}

std::optional<std::uint64_t> AdaptiveProber::group_head(TallyGroup& g) {
  while (!g.members.empty()) {
    const Member top = g.members.front();
    Class& c = classes_[top.cls];
    if (top.stamp != c.stamp) {  // the class has left this group
      pop_member(g);
      continue;
    }
    const std::optional<std::uint64_t> head = class_head(top.cls);
    if (!head) {
      pop_member(g);
      leave_group(c);
      continue;
    }
    if (*head != top.pos) {  // a seed or boost probed the old head
      pop_member(g);
      push_member(g, {*head, top.cls, top.stamp});
      ++rank_repushes_total_;
      continue;
    }
    return top.pos;
  }
  return std::nullopt;
}

std::optional<AdaptiveProber::Rank> AdaptiveProber::best_group() {
  while (!group_queue_.empty()) {
    const Rank top = group_queue_.front();
    TallyGroup& g = groups_[top.id];
    const bool current = top.version == g.version;
    const std::optional<std::uint64_t> head =
        current ? group_head(g) : std::nullopt;
    if (!head) {  // superseded entry, or the group emptied
      if (current) g.queued = false;
      pop_rank(group_queue_);
      continue;
    }
    const Rank fresh{group_score(g), *head, top.id, top.version};
    if (stale_behind_runner_up(group_queue_, fresh)) {
      g.queued_pos = fresh.pos;
      continue;
    }
    return fresh;
  }
  return std::nullopt;
}

std::optional<AdaptiveProber::Rank> AdaptiveProber::best_boost() {
  while (!boost_queue_.empty()) {
    const Rank top = boost_queue_.front();
    const passive::ServiceKey key = key_at(top.pos);
    if (has_octet(classes_[top.id].probed, key.addr)) {
      pop_rank(boost_queue_);  // its class cursor got there first
      continue;
    }
    const Rank fresh{priors_.score(key.addr, key.port, key.proto), top.pos,
                     top.id, 0};
    if (stale_behind_runner_up(boost_queue_, fresh)) continue;
    return fresh;
  }
  return std::nullopt;
}

void AdaptiveProber::push_boosts(net::Ipv4 addr) {
  const std::optional<std::uint32_t> subnet = subnet_of(addr);
  if (!subnet) return;
  const std::optional<std::uint32_t> target = target_index(*subnet, addr);
  if (!target) return;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const std::uint32_t cls = *subnet * slots_.size() + slot;
    const Slot& s = slots_[slot];
    if (has_octet(classes_[cls].probed, addr)) continue;
    if (priors_.conditional(addr, s.port, s.proto) <= 0.0) continue;
    push_rank(boost_queue_,
              {priors_.score(addr, s.port, s.proto),
               std::uint64_t{*target} * slots_.size() + slot, cls, 0});
  }
}

void AdaptiveProber::mark_probed(const passive::ServiceKey& key) {
  const std::optional<std::uint32_t> subnet = subnet_of(key.addr);
  const std::optional<std::uint32_t> slot = slot_of(key.port, key.proto);
  if (subnet && slot) {
    set_octet(classes_[*subnet * slots_.size() + *slot].probed, key.addr);
  }
}

std::optional<AdaptiveProber::Pick> AdaptiveProber::pop_best() {
  if (next_seed_ < seeds_.size()) {
    const passive::ServiceKey key = seeds_[next_seed_++];
    mark_probed(key);
    return Pick{key, true};
  }
  const std::optional<Rank> group = best_group();
  const std::optional<Rank> boost = best_boost();
  if (boost && (!group || ranks_before(*boost, *group))) {
    pop_rank(boost_queue_);
    const passive::ServiceKey key = key_at(boost->pos);
    set_octet(classes_[boost->id].probed, key.addr);
    return Pick{key, false};
  }
  if (!group) return std::nullopt;
  // Draw the group's first class in sweep order and advance its cursor;
  // the group's queue entry stays, re-ranked lazily on the next pop.
  TallyGroup& g = groups_[group->id];
  const Member m = pop_member(g);
  Class& c = classes_[m.cls];
  const passive::ServiceKey key = key_at(m.pos);
  set_octet(c.probed, key.addr);
  if (const std::optional<std::uint64_t> head = class_head(m.cls)) {
    push_member(g, {*head, m.cls, m.stamp});
  } else {
    leave_group(c);
  }
  return Pick{key, false};
}

void AdaptiveProber::send_next(std::size_t machine) {
  if (machine_done_[machine]) return;
  const util::TimePoint now = network_.simulator().now();

  std::optional<Pick> pick;
  if (budget_left_ > 0) pick = pop_best();
  if (!pick) {
    machine_done_[machine] = 1;
    if (++machines_done_ == machine_done_.size()) {
      // All first-stage probes sent (or the budget ran dry); allow
      // stragglers and outstanding verifications to answer.
      release_ranking();
      arm_finalize(now + spec_.timeout + util::msec(100));
    }
    return;
  }

  const passive::ServiceKey& key = pick->key;
  pending_.assign(key, current_.outcomes.size());
  current_.outcomes.push_back({key, ProbeStatus::kPending, now});

  const net::Ipv4 source = config_.source_addrs[machine];
  const net::Port sport = take_ephemeral();
  if (key.proto == net::Proto::kTcp) {
    network_.send(net::make_tcp(source, sport, key.addr, key.port,
                                net::flags_syn()));
    if (m_probes_tcp_) m_probes_tcp_->inc();
  } else {
    const std::uint16_t payload = spec_.udp_service_probes ? 48 : 0;
    network_.send(net::make_udp(source, sport, key.addr, key.port, payload));
    if (m_probes_udp_) m_probes_udp_->inc();
  }
  --budget_left_;
  ++budget_spent_total_;
  if (m_budget_spent_) m_budget_spent_->inc();
  if (pick->seeded) {
    ++seeds_probed_total_;
    if (m_seeds_probed_) m_seeds_probed_->inc();
  }

  buckets_[machine].consume(now);
  const util::TimePoint next = buckets_[machine].next_available(now);
  network_.simulator().at_timer(next, this, machine);
}

void AdaptiveProber::send_verify(const net::Packet& syn_ack) {
  // Complete the handshake and push application data immediately — the
  // LZR second stage. Verification is response-paced (only ever sent to
  // endpoints that answered), so it bypasses the probe budget and the
  // token bucket.
  net::Packet data = net::make_tcp(syn_ack.dst, syn_ack.dport, syn_ack.src,
                                   syn_ack.sport, net::flags_ack());
  data.seq = syn_ack.ack_no;
  data.ack_no = syn_ack.seq + 1;
  data.payload_len = kVerifyPayload;
  network_.send(data);
  ++verify_sent_total_;
  if (m_verify_sent_) m_verify_sent_->inc();
}

void AdaptiveProber::confirm_open(const passive::ServiceKey& key,
                                  std::size_t outcome_index) {
  ProbeOutcome& outcome = current_.outcomes[outcome_index];
  outcome.status = ProbeStatus::kOpen;
  outcome.when = network_.simulator().now();
  verifying_.erase(key);
  ++verify_confirmed_total_;
  if (m_verify_confirmed_) m_verify_confirmed_->inc();
  record_open(outcome, /*udp=*/false);
  note_outcome(outcome);
}

void AdaptiveProber::demote(const passive::ServiceKey& key,
                            std::size_t outcome_index) {
  ProbeOutcome& outcome = current_.outcomes[outcome_index];
  outcome.status = ProbeStatus::kUnverified;
  outcome.when = network_.simulator().now();
  verifying_.erase(key);
  ++demotions_total_;
  if (m_demotions_) m_demotions_->inc();
  SVCDISC_TRACE_INSTANT("prober.demote", outcome.when.usec);
  note_outcome(outcome);
}

void AdaptiveProber::on_packet(const net::Packet& p) {
  if (!in_progress_) return;
  switch (p.proto) {
    case net::Proto::kTcp: {
      const passive::ServiceKey key{p.src, net::Proto::kTcp, p.sport};
      if (p.flags.is_syn_ack()) {
        if (!adaptive_.verify) {
          resolve(key, ProbeStatus::kOpen);
          return;
        }
        // First stage answered; the verdict now rides on the data probe.
        const std::size_t outcome_index = pending_.erase(key);
        if (outcome_index == PendingIndex::npos) return;  // late/duplicate
        if (m_responses_) m_responses_->inc();
        verifying_[key] = {outcome_index, p.time};
        send_verify(p);
      } else if (p.flags.ack() && !p.flags.syn() && p.payload_len > 0) {
        // Data came back: a real service completed the exchange.
        const auto vit = verifying_.find(key);
        if (vit != verifying_.end()) confirm_open(key, vit->second.outcome);
      } else if (p.flags.rst()) {
        const auto vit = verifying_.find(key);
        if (vit != verifying_.end()) {
          // SYN-ACKed, then reset the data probe: no exchange, no service.
          demote(key, vit->second.outcome);
        } else {
          resolve(key, ProbeStatus::kClosed);
        }
      }
      return;
    }
    case net::Proto::kUdp: {
      // A UDP reply *is* a completed data exchange; no second stage.
      resolve({p.src, net::Proto::kUdp, p.sport}, ProbeStatus::kOpenUdp);
      return;
    }
    case net::Proto::kIcmp: {
      if (p.icmp_type == net::IcmpType::kDestUnreachable &&
          p.icmp_code == net::IcmpCode::kPortUnreachable) {
        resolve({p.src, p.icmp_orig_proto, p.icmp_orig_dport},
                ProbeStatus::kClosed);
      }
      return;
    }
  }
}

void AdaptiveProber::on_timer(std::uint64_t tag) {
  if (tag == kTimerFinalize) {
    finalize_scan();
  } else {
    send_next(static_cast<std::size_t>(tag));
  }
}

void AdaptiveProber::arm_finalize(util::TimePoint at) {
  network_.simulator().at_timer(at, this, kTimerFinalize);
}

void AdaptiveProber::note_outcome(const ProbeOutcome& outcome) {
  if (outcome.status == ProbeStatus::kPending) return;
  const passive::ServiceKey& key = outcome.key;
  const bool open = outcome.status == ProbeStatus::kOpen ||
                    outcome.status == ProbeStatus::kOpenUdp;
  const bool new_open = priors_.record(key.addr, key.port, key.proto, open);
  if (open && m_yield_open_) m_yield_open_->inc();
  if (classes_.empty()) return;  // no scan drawing from the grid
  // The outcome moved its (/24, port) tally: refile that class under its
  // new tally group. A newly confirmed service lifts the conditionals of
  // the address's other ports: boost them.
  const std::optional<std::uint32_t> subnet = subnet_of(key.addr);
  if (!subnet) return;
  if (const std::optional<std::uint32_t> slot = slot_of(key.port, key.proto)) {
    file_class(*subnet * static_cast<std::uint32_t>(slots_.size()) + *slot);
  }
  if (new_open) push_boosts(key.addr);
}

void AdaptiveProber::finalize_scan() {
  const util::TimePoint now = network_.simulator().now();

  // Verifications past the timeout demote; young ones (a straggler
  // SYN-ACK arrived near the deadline) push the finalize out and get
  // their full window.
  std::vector<std::pair<passive::ServiceKey, std::size_t>> expired;
  bool verify_outstanding = false;
  util::TimePoint next_deadline{};
  for (const auto& [key, v] : verifying_) {
    const util::TimePoint deadline = v.sent + spec_.timeout;
    if (now.usec >= deadline.usec) {
      expired.push_back({key, v.outcome});
    } else if (!verify_outstanding || deadline < next_deadline) {
      verify_outstanding = true;
      next_deadline = deadline;
    }
  }
  for (const auto& [key, outcome_index] : expired) demote(key, outcome_index);
  if (verify_outstanding) {
    arm_finalize(next_deadline + util::msec(100));
    return;
  }

  // §4.5 classification of unanswered first-stage probes, as in the
  // fixed sweep; every silence is also negative evidence for the priors.
  util::FlatSet<net::Ipv4> alive;
  for (const ProbeOutcome& o : current_.outcomes) {
    if (o.status != ProbeStatus::kPending) alive.insert(o.key.addr);
  }
  for (auto& outcome : current_.outcomes) {
    if (outcome.status != ProbeStatus::kPending) continue;
    if (outcome.key.proto == net::Proto::kTcp) {
      outcome.status = ProbeStatus::kFiltered;
    } else {
      outcome.status = alive.contains(outcome.key.addr)
                           ? ProbeStatus::kMaybeOpen
                           : ProbeStatus::kNoHost;
    }
    note_outcome(outcome);
  }

  if (m_entropy_) {
    m_entropy_->set(
        static_cast<std::int64_t>(std::llround(priors_.entropy() * 1000.0)));
  }
  finish_scan_record();
}

}  // namespace svcdisc::active
