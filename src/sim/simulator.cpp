#include "sim/simulator.h"

#include <utility>

#include "util/trace.h"

namespace svcdisc::sim {

void Simulator::attach_metrics(util::MetricsRegistry& registry,
                               std::string_view prefix) {
  const std::string base(prefix);
  m_events_ = &registry.counter(base + ".events_processed");
  m_queue_hwm_ = &registry.gauge(base + ".queue_depth_hwm");
}

void Simulator::note_push() {
  if (m_queue_hwm_) {
    m_queue_hwm_->update_max(static_cast<std::int64_t>(queue_.size()));
  }
}

void Simulator::at(util::TimePoint t, util::SmallFn fn) {
  queue_.push(t < now_ ? now_ : t, std::move(fn));
  note_push();
}

void Simulator::after(util::Duration d, util::SmallFn fn) {
  at(now_ + d, std::move(fn));
}

void Simulator::at_timer(util::TimePoint t, TimerTarget* target,
                         std::uint64_t tag) {
  queue_.push_timer(t < now_ ? now_ : t, target, tag);
  note_push();
}

void Simulator::after_timer(util::Duration d, TimerTarget* target,
                            std::uint64_t tag) {
  at_timer(now_ + d, target, tag);
}

void Simulator::after_packet(util::Duration d, PacketEventTarget* target,
                             const net::Packet& p, net::Ipv4 external,
                             bool crossed) {
  queue_.push_packet_after(now_, d, target, p, external, crossed);
  note_push();
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  now_ = queue_.next_time();
  Event ev = queue_.pop();
  ++processed_;
  if (m_events_) m_events_->inc();
  ev.fire();
  return true;
}

void Simulator::dispatch_next() {
  now_ = queue_.next_time();
  Event ev = queue_.pop();
  if (ev.kind != Event::Kind::kPacket) {
    ++processed_;
    if (m_events_) m_events_->inc();
    ev.fire();
    return;
  }

  // Coalesce the run of consecutive deliveries sharing this event's
  // (time, target, external, crossed). Any event scheduled by the
  // handlers gets a later seq than everything absorbed here, so batching
  // preserves the exact serial order.
  const PacketDelivery& head = ev.pod.packet;
  batch_.clear();
  batch_.push_back(head.packet);
  while (queue_.pop_packet_if(ev.time, head, &batch_)) {
  }
  processed_ += batch_.size();
  if (m_events_) m_events_->inc(batch_.size());
  head.target->deliver_packets(batch_, head.external, head.crossed);
}

void Simulator::run_until(util::TimePoint t) {
  SVCDISC_TRACE_SPAN_AT("sim.run_until", t.usec);
  while (!queue_.empty() && queue_.next_time() <= t) dispatch_next();
  if (now_ < t) now_ = t;
}

void Simulator::run() {
  SVCDISC_TRACE_SPAN("sim.run");
  while (!queue_.empty()) dispatch_next();
}

}  // namespace svcdisc::sim
