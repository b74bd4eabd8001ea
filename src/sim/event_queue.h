// A deterministic discrete-event queue over POD tagged events.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which makes runs reproducible
// regardless of heap internals.
//
// The queue stores three event kinds:
//   * packet delivery — the dominant event: a Packet plus its
//     PacketEventTarget, held by value, no allocation;
//   * timer — a (TimerTarget*, tag) pair for periodic/self-rescheduling
//     components (probers, hosts, flow generators), no allocation;
//   * callback — the generic escape hatch: a util::SmallFn, which stays
//     allocation-free for captures up to 48 bytes.
// The heap itself orders small (time, seq, slot) keys; event payloads
// live in a slab indexed by slot, so sift operations never move them.
//
// Delivery lanes. Packet deliveries scheduled a fixed delay after a
// non-decreasing clock (push_packet_after) arrive already sorted by
// (time, seq), so each distinct delay gets a FIFO ring instead of the
// heap: a push appends, a pop takes the head. The earliest event is the
// (time, seq) minimum over the heap top and the lane heads, so the pop
// order is exactly the single-heap order.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.h"
#include "util/sim_time.h"
#include "util/small_fn.h"

namespace svcdisc::sim {

/// Receiver of timer events. `tag` is caller-defined (e.g. a machine or
/// stream index), letting one target multiplex many timers.
class TimerTarget {
 public:
  virtual ~TimerTarget() = default;
  virtual void on_timer(std::uint64_t tag) = 0;
};

/// Receiver of packet-delivery events. The simulator coalesces
/// consecutive same-timestamp deliveries to one target into a single
/// span (see Simulator::run), so implementations get batches for free.
class PacketEventTarget {
 public:
  virtual ~PacketEventTarget() = default;
  /// Delivers `packets` (all due now, in schedule order). `external` is
  /// the off-campus endpoint and `crossed` whether the path crosses the
  /// campus border — identical for every packet in one call.
  virtual void deliver_packets(std::span<net::Packet> packets,
                               net::Ipv4 external, bool crossed) = 0;
};

/// The payload of a packet-delivery event, held by value.
struct PacketDelivery {
  PacketEventTarget* target;
  net::Packet packet;
  net::Ipv4 external;  ///< off-campus endpoint
  bool crossed;        ///< path crosses the border

  /// Whether `o` may share a deliver_packets() batch with this one.
  bool same_batch(const PacketDelivery& o) const {
    return target == o.target && external == o.external &&
           crossed == o.crossed;
  }
};

/// One scheduled event. Plain tagged struct; `fire()` dispatches it.
struct Event {
  enum class Kind : std::uint8_t { kPacket, kTimer, kCallback };

  util::TimePoint time{};
  std::uint64_t seq{0};
  Kind kind{Kind::kCallback};
  union Pod {
    PacketDelivery packet;
    struct {
      TimerTarget* target;
      std::uint64_t tag;
    } timer;
    Pod() : timer{nullptr, 0} {}
  } pod;
  util::SmallFn fn;  ///< kCallback only

  /// Dispatches this event (packet events as a batch of one).
  void fire() {
    switch (kind) {
      case Kind::kPacket:
        pod.packet.target->deliver_packets({&pod.packet.packet, 1},
                                           pod.packet.external,
                                           pod.packet.crossed);
        break;
      case Kind::kTimer:
        pod.timer.target->on_timer(pod.timer.tag);
        break;
      case Kind::kCallback:
        fn();
        break;
    }
  }
};

/// Min-heap of timestamped events with FIFO tie-breaking, plus FIFO
/// delivery lanes for fixed-delay packets.
class EventQueue {
 public:
  /// Distinct delays that get a lane; further delays use the heap.
  static constexpr std::size_t kLanes = 4;

  /// Enqueue a generic callback to fire at time `t`.
  void push(util::TimePoint t, util::SmallFn fn);
  /// Enqueue a timer event for `target` at time `t`.
  void push_timer(util::TimePoint t, TimerTarget* target,
                  std::uint64_t tag = 0);
  /// Enqueue delivery of `p` to `target` at an arbitrary time `t`.
  void push_packet(util::TimePoint t, PacketEventTarget* target,
                   const net::Packet& p, net::Ipv4 external, bool crossed);
  /// Enqueue delivery of `p` to `target` at `now + delay`. With `now`
  /// non-decreasing across calls this goes to `delay`'s lane; a delay
  /// past the first kLanes distinct ones, or a time earlier than the
  /// lane's tail, goes to the heap instead. Either way the pop order is
  /// the (time, seq) order.
  void push_packet_after(util::TimePoint now, util::Duration delay,
                         PacketEventTarget* target, const net::Packet& p,
                         net::Ipv4 external, bool crossed);

  bool empty() const { return size() == 0; }
  /// Pending events, heap and lanes together.
  std::size_t size() const { return heap_.size() + lane_size_; }

  /// Timestamp of the earliest event; undefined when empty.
  util::TimePoint next_time() const;

  /// Removes and returns the earliest event; undefined when empty.
  Event pop();
  /// When the earliest event is a packet delivery due at `t` that may
  /// share a batch with `like`, removes it, appends its packet to `out`
  /// and returns true; otherwise leaves the queue alone.
  bool pop_packet_if(util::TimePoint t, const PacketDelivery& like,
                     std::vector<net::Packet>* out);

 private:
  /// Heap element: ordering key plus the slab slot of the payload.
  struct Key {
    util::TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// One lane element: the ordering key and the delivery, no SmallFn.
  struct LaneEntry {
    util::TimePoint time;
    std::uint64_t seq;
    PacketDelivery delivery;
  };
  /// FIFO ring of one delay's deliveries, sorted by (time, seq).
  struct Lane {
    util::Duration delay{};
    std::vector<LaneEntry> ring;  ///< power-of-two capacity
    std::size_t head{0};
    std::size_t count{0};
    /// The i-th entry from the head.
    LaneEntry& at(std::size_t i) {
      return ring[(head + i) & (ring.size() - 1)];
    }
    const LaneEntry& at(std::size_t i) const {
      return ring[(head + i) & (ring.size() - 1)];
    }
  };
  /// earliest() result naming the heap top rather than a lane head.
  static constexpr int kHeap = -1;
  /// Cache state meaning earliest() must be recomputed.
  static constexpr int kStale = -2;

  /// Grabs a free slab slot (growing the slab if needed) and stamps its
  /// (time, seq); returns the slot's Event for payload assignment.
  Event& emplace(util::TimePoint t);
  /// Lane serving `delay`, claiming a free one; nullptr when all taken.
  Lane* lane_for(util::Duration delay);
  /// Source of the earliest event: a lane index or kHeap. Requires
  /// !empty().
  int earliest() const;
  /// Removes the heap top and returns its slab slot (still occupied).
  std::uint32_t take_heap_top();
  void release_slot(std::uint32_t slot);
  void advance(Lane& lane);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  static bool before(util::TimePoint at, std::uint64_t aseq,
                     util::TimePoint bt, std::uint64_t bseq) {
    if (at != bt) return at < bt;
    return aseq < bseq;
  }
  static bool before(const Key& a, const Key& b) {
    return before(a.time, a.seq, b.time, b.seq);
  }

  std::vector<Key> heap_;
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::array<Lane, kLanes> lanes_;
  std::size_t lanes_used_{0};
  std::size_t lane_size_{0};
  mutable int earliest_{kStale};
  std::uint64_t next_seq_{0};
};

}  // namespace svcdisc::sim
