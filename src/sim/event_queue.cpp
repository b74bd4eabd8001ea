#include "sim/event_queue.h"

#include <utility>

namespace svcdisc::sim {

namespace {
constexpr std::size_t kInitialLaneCapacity = 64;
}  // namespace

Event& EventQueue::emplace(util::TimePoint t) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Event& ev = slab_[slot];
  ev.time = t;
  ev.seq = next_seq_++;
  heap_.push_back(Key{t, ev.seq, slot});
  sift_up(heap_.size() - 1);
  earliest_ = kStale;
  return ev;
}

void EventQueue::push(util::TimePoint t, util::SmallFn fn) {
  Event& ev = emplace(t);
  ev.kind = Event::Kind::kCallback;
  ev.fn = std::move(fn);
}

void EventQueue::push_timer(util::TimePoint t, TimerTarget* target,
                            std::uint64_t tag) {
  Event& ev = emplace(t);
  ev.kind = Event::Kind::kTimer;
  ev.pod.timer = {target, tag};
}

void EventQueue::push_packet(util::TimePoint t, PacketEventTarget* target,
                             const net::Packet& p, net::Ipv4 external,
                             bool crossed) {
  Event& ev = emplace(t);
  ev.kind = Event::Kind::kPacket;
  ev.pod.packet = {target, p, external, crossed};
}

EventQueue::Lane* EventQueue::lane_for(util::Duration delay) {
  for (std::size_t i = 0; i < lanes_used_; ++i) {
    if (lanes_[i].delay == delay) return &lanes_[i];
  }
  if (lanes_used_ == kLanes) return nullptr;
  Lane& lane = lanes_[lanes_used_++];
  lane.delay = delay;
  lane.ring.resize(kInitialLaneCapacity);
  return &lane;
}

void EventQueue::push_packet_after(util::TimePoint now, util::Duration delay,
                                   PacketEventTarget* target,
                                   const net::Packet& p, net::Ipv4 external,
                                   bool crossed) {
  const util::TimePoint t = now + delay;
  Lane* lane = lane_for(delay);
  // A lane stays sorted only while its times never decrease; anything
  // else takes the heap, which orders arbitrary times.
  if (lane == nullptr ||
      (lane->count > 0 && t < lane->at(lane->count - 1).time)) {
    push_packet(t, target, p, external, crossed);
    return;
  }
  if (lane->count == lane->ring.size()) {
    std::vector<LaneEntry> grown(2 * lane->ring.size());
    for (std::size_t i = 0; i < lane->count; ++i) grown[i] = lane->at(i);
    lane->ring = std::move(grown);
    lane->head = 0;
  }
  lane->at(lane->count++) = {t, next_seq_++, {target, p, external, crossed}};
  ++lane_size_;
  earliest_ = kStale;
}

int EventQueue::earliest() const {
  if (earliest_ != kStale) return earliest_;
  int best = kHeap;
  const LaneEntry* head = nullptr;
  for (std::size_t i = 0; i < lanes_used_; ++i) {
    const Lane& lane = lanes_[i];
    if (lane.count == 0) continue;
    const LaneEntry& e = lane.at(0);
    if (head == nullptr || before(e.time, e.seq, head->time, head->seq)) {
      best = static_cast<int>(i);
      head = &e;
    }
  }
  if (head != nullptr && !heap_.empty() &&
      before(heap_[0].time, heap_[0].seq, head->time, head->seq)) {
    best = kHeap;
  }
  earliest_ = best;
  return best;
}

util::TimePoint EventQueue::next_time() const {
  const int src = earliest();
  if (src == kHeap) return heap_[0].time;
  return lanes_[static_cast<std::size_t>(src)].at(0).time;
}

std::uint32_t EventQueue::take_heap_top() {
  const std::uint32_t slot = heap_[0].slot;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  earliest_ = kStale;
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  slab_[slot].fn.reset();  // release any non-inline callback remnant
  free_slots_.push_back(slot);
}

void EventQueue::advance(Lane& lane) {
  lane.head = (lane.head + 1) & (lane.ring.size() - 1);
  --lane.count;
  --lane_size_;
  earliest_ = kStale;
}

Event EventQueue::pop() {
  const int src = earliest();
  if (src == kHeap) {
    const std::uint32_t slot = take_heap_top();
    Event out = std::move(slab_[slot]);
    release_slot(slot);
    return out;
  }
  Lane& lane = lanes_[static_cast<std::size_t>(src)];
  const LaneEntry& e = lane.at(0);
  Event out;
  out.time = e.time;
  out.seq = e.seq;
  out.kind = Event::Kind::kPacket;
  out.pod.packet = e.delivery;
  advance(lane);
  return out;
}

bool EventQueue::pop_packet_if(util::TimePoint t, const PacketDelivery& like,
                               std::vector<net::Packet>* out) {
  if (empty()) return false;
  const int src = earliest();
  if (src == kHeap) {
    if (heap_[0].time != t) return false;
    const Event& ev = slab_[heap_[0].slot];
    if (ev.kind != Event::Kind::kPacket || !like.same_batch(ev.pod.packet)) {
      return false;
    }
    out->push_back(ev.pod.packet.packet);
    release_slot(take_heap_top());
    return true;
  }
  Lane& lane = lanes_[static_cast<std::size_t>(src)];
  const LaneEntry& e = lane.at(0);
  if (e.time != t || !like.same_batch(e.delivery)) return false;
  out->push_back(e.delivery.packet);
  advance(lane);
  return true;
}

void EventQueue::sift_up(std::size_t i) {
  Key key = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventQueue::sift_down(std::size_t i) {
  Key key = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], key)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = key;
}

}  // namespace svcdisc::sim
