#include "active/prober.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/trace.h"

namespace svcdisc::active {

std::size_t ScanRecord::count(ProbeStatus status) const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [&](const ProbeOutcome& o) { return o.status == status; }));
}

std::vector<passive::ServiceKey> ScanRecord::open_services() const {
  std::vector<passive::ServiceKey> open;
  for (const ProbeOutcome& o : outcomes) {
    if (o.status == ProbeStatus::kOpen || o.status == ProbeStatus::kOpenUdp) {
      open.push_back(o.key);
    }
  }
  return open;
}

// ---------------------------------------------------------------------------
// ScanSummary
// ---------------------------------------------------------------------------

ScanSummary ScanSummary::of(const ScanRecord& record,
                            const passive::ServiceTable* known) {
  ScanSummary summary;
  summary.index = record.index;
  summary.started = record.started;
  summary.finished = record.finished;
  summary.hosts_pinged = record.hosts_pinged;
  summary.hosts_alive = record.hosts_alive;

  // Per address: sent a RST to some TCP probe, and/or runs a TCP service
  // `known` has discovered. Only unanswered TCP probes to flagged
  // addresses can feed the firewall confirmation. Most unanswered probes
  // go to dark addresses, so this small map screens them before the
  // large table is asked about a key.
  constexpr std::uint8_t kRst = 1, kKnown = 2;
  util::FlatMap<net::Ipv4, std::uint8_t> flags;
  for (const ProbeOutcome& o : record.outcomes) {
    ++summary.status_counts[static_cast<std::size_t>(o.status)];
    if (o.status == ProbeStatus::kClosed && o.key.proto == net::Proto::kTcp) {
      flags[o.key.addr] |= kRst;
    }
  }
  if (known) {
    known->for_each([&](const passive::ServiceKey& key,
                        const passive::ServiceRecord&) {
      if (key.proto == net::Proto::kTcp) flags[key.addr] |= kKnown;
    });
  }

  summary.opens.reserve(summary.count(ProbeStatus::kOpen) +
                        summary.count(ProbeStatus::kOpenUdp));
  util::FlatSet<net::Ipv4> mixed;
  for (const ProbeOutcome& o : record.outcomes) {
    if (o.status == ProbeStatus::kOpen || o.status == ProbeStatus::kOpenUdp) {
      summary.opens.push_back({o.key, o.when});
    } else if (o.status == ProbeStatus::kFiltered && !flags.empty() &&
               o.key.proto == net::Proto::kTcp) {
      const auto it = flags.find(o.key.addr);
      if (it == flags.end()) continue;
      if (it->second & kRst) mixed.insert(o.key.addr);
      if ((it->second & kKnown) && known->contains(o.key)) {
        summary.kept_filtered.push_back(o.key);
      }
    }
  }
  summary.mixed_tcp_addrs.reserve(mixed.size());
  for (const net::Ipv4 addr : mixed) summary.mixed_tcp_addrs.push_back(addr);
  std::sort(summary.mixed_tcp_addrs.begin(), summary.mixed_tcp_addrs.end());
  summary.kept_filtered.shrink_to_fit();
  return summary;
}

std::size_t ScanSummary::probes() const {
  std::size_t total = 0;
  for (const std::size_t n : status_counts) total += n;
  return total;
}

std::vector<passive::ServiceKey> ScanSummary::open_services() const {
  std::vector<passive::ServiceKey> open;
  open.reserve(opens.size());
  for (const OpenService& o : opens) open.push_back(o.key);
  return open;
}

// ---------------------------------------------------------------------------
// PendingIndex
// ---------------------------------------------------------------------------

void PendingIndex::clear() {
  slots_ = {};
  live_ = 0;
  used_ = 0;
}

void PendingIndex::reserve(std::size_t inserts) {
  const std::size_t capacity = util::detail::slot_capacity_for(inserts);
  if (capacity > slots_.size()) rehash(capacity);
}

void PendingIndex::grow() {
  ++regrowths_;
  rehash(util::detail::slot_capacity_for(live_ + 1));
}

void PendingIndex::rehash(std::size_t capacity) {
  const std::vector<std::uint32_t> old =
      std::exchange(slots_, std::vector<std::uint32_t>(capacity, kEmpty));
  const std::size_t mask = capacity - 1;
  for (const std::uint32_t s : old) {
    if (s == kEmpty || s == kTombstone) continue;
    std::size_t i = hash(outcomes_[s - 1].key) & mask;
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = s;
  }
  used_ = live_;
}

// ---------------------------------------------------------------------------
// ProberBase
// ---------------------------------------------------------------------------

ProberBase::ProberBase(sim::Network& network, ProberConfig config)
    : network_(network), config_(std::move(config)) {
  if (config_.source_addrs.empty()) {
    throw std::invalid_argument("Prober: need at least one source address");
  }
  for (const net::Ipv4 addr : config_.source_addrs) {
    network_.attach(addr, this);
  }
}

ProberBase::~ProberBase() {
  for (const net::Ipv4 addr : config_.source_addrs) {
    network_.detach(addr, this);
  }
}

void ProberBase::attach_metrics(util::MetricsRegistry& registry,
                                std::string_view prefix) {
  metrics_ = &registry;
  metrics_prefix_ = std::string(prefix);
  m_probes_tcp_ = &registry.counter(metrics_prefix_ + ".probes_tcp_sent");
  m_probes_udp_ = &registry.counter(metrics_prefix_ + ".probes_udp_sent");
  m_pings_ = &registry.counter(metrics_prefix_ + ".pings_sent");
  m_responses_ = &registry.counter(metrics_prefix_ + ".responses_received");
  m_discoveries_ = &registry.counter(metrics_prefix_ + ".discoveries");
  m_scans_ = &registry.counter(metrics_prefix_ + ".scans_completed");
}

void ProberBase::begin_scan_record(
    ScanSpec spec, std::function<void(const ScanRecord&)> on_complete,
    std::uint64_t max_probes) {
  if (in_progress_) throw std::logic_error("Prober: scan already in flight");
  if (max_probes > PendingIndex::kMaxPositions) {
    throw std::length_error("Prober: scan plans " +
                            std::to_string(max_probes) +
                            " probes, more than one scan can index (" +
                            std::to_string(PendingIndex::kMaxPositions) +
                            ")");
  }
  in_progress_ = true;
  spec_ = std::move(spec);
  on_complete_ = std::move(on_complete);
  // Reset field by field: the outcome buffer keeps the capacity earlier
  // scans grew it to.
  current_.index = static_cast<int>(scans_.size());
  current_.started = network_.simulator().now();
  current_.finished = {};
  current_.outcomes.clear();
  current_.hosts_pinged = 0;
  current_.hosts_alive = 0;
  // One async span per scan round: begin here, end in finish_scan_record.
  util::trace::async_begin("prober.scan",
                           static_cast<std::uint64_t>(current_.index) + 1,
                           current_.started.usec);
  pending_.clear();
}

std::uint64_t ProberBase::sweep_size(const ScanSpec& spec) {
  const std::uint64_t targets = spec.targets.size();
  const std::uint64_t ports = spec.tcp_ports.size() + spec.udp_ports.size();
  if (ports != 0 && targets > ~std::uint64_t{0} / ports) {
    return ~std::uint64_t{0};
  }
  return targets * ports;
}

void ProberBase::finish_scan_record() {
  pending_.clear();
  current_.finished = network_.simulator().now();
  util::trace::async_end("prober.scan",
                         static_cast<std::uint64_t>(current_.index) + 1,
                         current_.finished.usec);
  in_progress_ = false;
  scans_.push_back(ScanSummary::of(current_, keep_filtered_known_to));
  if (m_scans_) m_scans_->inc();
  SVCDISC_LOG(kInfo) << "scan " << scans_.back().index << " finished: "
                     << scans_.back().count(ProbeStatus::kOpen)
                     << " open TCP services";
  // The hook is the last reader of the outcomes. Taking it out first
  // lets it start the next scan without replacing itself mid-call.
  if (auto hook = std::exchange(on_complete_, {})) hook(current_);
}

void ProberBase::release_scan_buffer() {
  if (!in_progress_) current_.outcomes = {};
}

void ProberBase::reset_buckets() {
  buckets_.clear();
  buckets_.reserve(config_.source_addrs.size());
  for (std::size_t m = 0; m < config_.source_addrs.size(); ++m) {
    buckets_.emplace_back(spec_.probes_per_sec, 1.0);
    if (metrics_) {
      buckets_.back().attach_metrics(*metrics_,
                                     metrics_prefix_ + ".rate_limiter");
    }
  }
}

void ProberBase::resolve(const passive::ServiceKey& key, ProbeStatus status) {
  const std::size_t pos = pending_.erase(key);
  if (pos == PendingIndex::npos) return;  // late/duplicate response
  ProbeOutcome& outcome = current_.outcomes[pos];
  outcome.status = status;
  outcome.when = network_.simulator().now();
  if (m_responses_) m_responses_->inc();

  if (status == ProbeStatus::kOpen || status == ProbeStatus::kOpenUdp) {
    record_open(outcome, status == ProbeStatus::kOpenUdp);
  }
  note_outcome(outcome);
}

void ProberBase::record_open(const ProbeOutcome& outcome, bool udp) {
  if (table_.discover(outcome.key, outcome.when)) {
    SVCDISC_TRACE_INSTANT("prober.discover", outcome.when.usec);
    if (m_discoveries_) m_discoveries_->inc();
    if (on_discovery) on_discovery(outcome.key, outcome.when);
  }
  if (on_open_response) on_open_response(outcome.key, outcome.when, udp);
}

void ProberBase::note_outcome(const ProbeOutcome& /*outcome*/) {}

net::Port ProberBase::take_ephemeral() {
  next_ephemeral_ = next_ephemeral_ >= 60000 ? net::Port{40000}
                                             : net::Port(next_ephemeral_ + 1);
  return next_ephemeral_;
}

// ---------------------------------------------------------------------------
// Prober — the fixed exhaustive sweep
// ---------------------------------------------------------------------------

Prober::Prober(sim::Network& network, ProberConfig config)
    : ProberBase(network, std::move(config)) {}

void Prober::start_scan(ScanSpec spec,
                        std::function<void(const ScanRecord&)> on_complete) {
  const std::uint64_t max_probes = sweep_size(spec);
  begin_scan_record(std::move(spec), std::move(on_complete), max_probes);
  alive_hosts_.clear();

  const std::size_t machines = config_.source_addrs.size();
  plan_.assign(machines, {});
  cursor_.assign(machines, 0);
  machines_done_ = 0;
  // One pacing bucket per machine (the paper's per-machine rate limit).
  reset_buckets();

  phase_targets_ = &spec_.targets;
  if (spec_.host_discovery) {
    // Phase 1: one ICMP echo per target address; port probes follow for
    // responders only.
    pinging_ = true;
    current_.hosts_pinged =
        static_cast<std::uint32_t>(spec_.targets.size());
    plan_phase(/*ping=*/true, spec_.targets.size());
  } else {
    pinging_ = false;
    plan_phase(/*ping=*/false, spec_.targets.size());
  }

  bool any = false;
  for (std::size_t m = 0; m < machines; ++m) {
    if (plan_[m].task_count == 0) {
      ++machines_done_;
    } else {
      any = true;
      send_next(m);
    }
  }
  if (!any) {
    // Degenerate scan with no probes: complete immediately.
    pinging_ = false;
    network_.simulator().after_timer(util::usec(0), this, kTimerFinalize);
  }
}

void Prober::on_timer(std::uint64_t tag) {
  if (tag == kTimerFinalize) {
    finalize_scan();
  } else if (tag == kTimerBeginPortPhase) {
    begin_port_phase();
  } else {
    send_next(static_cast<std::size_t>(tag));
  }
}

void Prober::plan_phase(bool ping, std::size_t target_count) {
  // Split targets evenly across prober machines, preserving probe order
  // within each machine's share (address-major, port-minor). Only the
  // split is computed here; task_at() materializes individual probes on
  // demand, so a million-address phase costs three integers per machine
  // instead of a (targets x ports) task vector.
  const std::size_t machines = plan_.size();
  const std::size_t per_machine =
      (target_count + machines - 1) / std::max<std::size_t>(machines, 1);
  const std::size_t tasks_per_target =
      ping ? 1 : spec_.tcp_ports.size() + spec_.udp_ports.size();
  std::size_t total = 0;
  for (std::size_t m = 0; m < machines; ++m) {
    const std::size_t begin = m * per_machine;
    const std::size_t end = std::min(target_count, begin + per_machine);
    MachinePlan& plan = plan_[m];
    plan.first_target = begin;
    plan.target_count = end > begin ? end - begin : 0;
    plan.task_count = plan.target_count * tasks_per_target;
    total += plan.task_count;
  }
  if (!ping) {
    // Ping phases leave no outcomes; a port phase presizes both the
    // outcome vector and the pending index for every probe it plans.
    current_.outcomes.reserve(current_.outcomes.size() + total);
    pending_.reserve(total);
  }
}

Prober::ProbeTask Prober::task_at(std::size_t machine,
                                  std::size_t cursor) const {
  const MachinePlan& plan = plan_[machine];
  const std::vector<net::Ipv4>& targets = *phase_targets_;
  if (pinging_) {
    return {targets[plan.first_target + cursor], 0, net::Proto::kIcmp};
  }
  const std::size_t per_addr =
      spec_.tcp_ports.size() + spec_.udp_ports.size();
  const net::Ipv4 addr = targets[plan.first_target + cursor / per_addr];
  const std::size_t pi = cursor % per_addr;
  if (pi < spec_.tcp_ports.size()) {
    return {addr, spec_.tcp_ports[pi], net::Proto::kTcp};
  }
  return {addr, spec_.udp_ports[pi - spec_.tcp_ports.size()],
          net::Proto::kUdp};
}

void Prober::begin_port_phase() {
  pinging_ = false;
  current_.hosts_alive = static_cast<std::uint32_t>(alive_hosts_.size());
  // Keep the original target order, filtered to responding hosts.
  alive_targets_.clear();
  alive_targets_.reserve(alive_hosts_.size());
  for (const net::Ipv4 addr : spec_.targets) {
    if (alive_hosts_.contains(addr)) alive_targets_.push_back(addr);
  }
  phase_targets_ = &alive_targets_;
  plan_phase(/*ping=*/false, alive_targets_.size());
  cursor_.assign(plan_.size(), 0);
  machines_done_ = 0;
  bool any = false;
  for (std::size_t m = 0; m < plan_.size(); ++m) {
    if (plan_[m].task_count == 0) {
      ++machines_done_;
    } else {
      any = true;
      send_next(m);
    }
  }
  if (!any) {
    network_.simulator().after_timer(util::usec(0), this, kTimerFinalize);
  }
}

void Prober::send_next(std::size_t machine) {
  std::size_t& cursor = cursor_[machine];
  const ProbeTask task = task_at(machine, cursor);
  const net::Ipv4 source = config_.source_addrs[machine];
  const util::TimePoint now = network_.simulator().now();

  if (task.proto == net::Proto::kIcmp) {
    net::Packet ping;
    ping.src = source;
    ping.dst = task.addr;
    ping.proto = net::Proto::kIcmp;
    ping.icmp_type = net::IcmpType::kEchoRequest;
    network_.send(ping);
    if (m_pings_) m_pings_->inc();
  } else {
    const passive::ServiceKey key{task.addr, task.proto, task.port};
    // A scan probes each (addr, port, proto) once, so insertion is
    // always fresh; duplicated targets in the spec are tolerated by
    // keeping the first pending entry (a repeat sent after it resolved
    // gets a fresh outcome). One lookup either way.
    if (pending_.emplace(key, current_.outcomes.size())) {
      current_.outcomes.push_back({key, ProbeStatus::kPending, now});
    }

    const net::Port sport = take_ephemeral();
    if (task.proto == net::Proto::kTcp) {
      network_.send(net::make_tcp(source, sport, task.addr, task.port,
                                  net::flags_syn()));
      if (m_probes_tcp_) m_probes_tcp_->inc();
    } else {
      // Generic (zero-payload) UDP probe by default (§4.5); a
      // service-specific probe carries a well-formed application request
      // that any live implementation answers.
      const std::uint16_t payload = spec_.udp_service_probes ? 48 : 0;
      network_.send(net::make_udp(source, sport, task.addr,
                                  task.port, payload));
      if (m_probes_udp_) m_probes_udp_->inc();
    }
  }
  buckets_[machine].consume(now);

  ++cursor;
  if (cursor >= plan_[machine].task_count) {
    if (++machines_done_ == plan_.size()) {
      // All packets of this phase sent; allow stragglers to answer.
      network_.simulator().after_timer(
          spec_.timeout + util::msec(100), this,
          pinging_ ? kTimerBeginPortPhase : kTimerFinalize);
    }
    return;
  }
  // The token bucket answers "when may the next probe go?"; with burst 1
  // that is now + 1/rate, with sub-usec deficits carried forward so long
  // scans hold the configured rate exactly.
  const util::TimePoint next = buckets_[machine].next_available(now);
  if (util::trace::enabled() && next > now) {
    util::trace::instant_value("prober.bucket_wait", now.usec,
                               (next - now).usec);
  }
  network_.simulator().at_timer(next, this, machine);
}

void Prober::on_packet(const net::Packet& p) {
  if (!in_progress_) return;
  switch (p.proto) {
    case net::Proto::kTcp: {
      const passive::ServiceKey key{p.src, net::Proto::kTcp, p.sport};
      if (p.flags.is_syn_ack()) {
        resolve(key, ProbeStatus::kOpen);
      } else if (p.flags.rst()) {
        resolve(key, ProbeStatus::kClosed);
      }
      return;
    }
    case net::Proto::kUdp: {
      resolve({p.src, net::Proto::kUdp, p.sport}, ProbeStatus::kOpenUdp);
      return;
    }
    case net::Proto::kIcmp: {
      if (p.icmp_type == net::IcmpType::kEchoReply) {
        if (pinging_) alive_hosts_.insert(p.src);
      } else if (p.icmp_type == net::IcmpType::kDestUnreachable &&
                 p.icmp_code == net::IcmpCode::kPortUnreachable) {
        resolve({p.src, p.icmp_orig_proto, p.icmp_orig_dport},
                ProbeStatus::kClosed);
      }
      return;
    }
  }
}

void Prober::finalize_scan() {
  // Hosts that answered anything are alive; their unanswered UDP probes
  // are "possibly open", everyone else's are "no host" (§4.5). A host
  // that answered only the ICMP host-discovery ping proved itself alive
  // too — alive_hosts_ joins the port-probe responders.
  util::FlatSet<net::Ipv4> alive;
  for (const net::Ipv4 addr : alive_hosts_) alive.insert(addr);
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
  }
  finish_scan_record();
}

}  // namespace svcdisc::active
