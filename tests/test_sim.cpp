// Unit tests for sim: event ordering, clock semantics, network routing,
// border-crossing observation.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "net/packet.h"
#include "sim/border_router.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace svcdisc::sim {
namespace {

using net::Ipv4;
using net::Packet;
using net::Prefix;
using util::hours;
using util::kEpoch;
using util::msec;
using util::seconds;

// ------------------------------------------------------------ EventQueue --

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(kEpoch + seconds(3), [&] { fired.push_back(3); });
  q.push(kEpoch + seconds(1), [&] { fired.push_back(1); });
  q.push(kEpoch + seconds(2), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameTime) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(kEpoch + seconds(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fire();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

struct RecordingTimer final : TimerTarget {
  std::vector<std::uint64_t> tags;
  void on_timer(std::uint64_t tag) override { tags.push_back(tag); }
};

struct RecordingTarget final : PacketEventTarget {
  std::vector<std::size_t> batch_sizes;
  std::vector<Packet> delivered;
  net::Ipv4 last_external{};
  bool last_crossed{false};
  void deliver_packets(std::span<Packet> packets, net::Ipv4 external,
                       bool crossed) override {
    batch_sizes.push_back(packets.size());
    delivered.insert(delivered.end(), packets.begin(), packets.end());
    last_external = external;
    last_crossed = crossed;
  }
};

TEST(EventQueue, MixedKindsKeepFifoAtSameTime) {
  EventQueue q;
  RecordingTimer timer;
  RecordingTarget target;
  std::vector<int> order;  // 0 = callback, 1 = timer, 2 = packet
  q.push(kEpoch + seconds(1), [&] { order.push_back(0); });
  q.push_timer(kEpoch + seconds(1), &timer, 7);
  q.push_packet(kEpoch + seconds(1), &target,
                net::make_tcp(Ipv4(1), 1, Ipv4(2), 2, net::flags_syn()),
                Ipv4(9), true);
  while (!q.empty()) {
    Event ev = q.pop();
    if (ev.kind == Event::Kind::kTimer) order.push_back(1);
    if (ev.kind == Event::Kind::kPacket) order.push_back(2);
    ev.fire();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(timer.tags, (std::vector<std::uint64_t>{7}));
  ASSERT_EQ(target.batch_sizes, (std::vector<std::size_t>{1}));
  EXPECT_EQ(target.last_external, Ipv4(9));
  EXPECT_TRUE(target.last_crossed);
}

TEST(EventQueue, SlotReuseDoesNotDisturbOrdering) {
  // Interleave pops with pushes so slab slots get recycled, and verify
  // the (time, seq) order is still exact.
  EventQueue q;
  std::vector<int> fired;
  q.push(kEpoch + seconds(1), [&] { fired.push_back(1); });
  q.push(kEpoch + seconds(3), [&] { fired.push_back(3); });
  q.pop().fire();  // frees a slot
  q.push(kEpoch + seconds(2), [&] { fired.push_back(2); });
  q.push(kEpoch + seconds(2), [&] { fired.push_back(22); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 22, 3}));
}

TEST(EventQueue, LargeCaptureCallbackStillFires) {
  // Captures past SmallFn's inline buffer take the heap fallback but
  // must behave identically.
  EventQueue q;
  std::array<std::uint64_t, 16> payload{};
  payload.fill(42);
  std::uint64_t sum = 0;
  q.push(kEpoch + seconds(1), [payload, &sum] {
    for (const auto v : payload) sum += v;
  });
  q.pop().fire();
  EXPECT_EQ(sum, 42u * 16);
}

TEST(Simulator, CoalescesSameTimeDeliveriesToOneTarget) {
  Simulator sim;
  RecordingTarget a;
  RecordingTarget b;
  const Packet p = net::make_tcp(Ipv4(1), 1, Ipv4(2), 2, net::flags_syn());
  // Three packets for `a` and one for `b`, all due at the same instant:
  // a's run coalesces into one batch of 3; b's is its own batch.
  sim.after_packet(seconds(5), &a, p, Ipv4(9), true);
  sim.after_packet(seconds(5), &a, p, Ipv4(9), true);
  sim.after_packet(seconds(5), &a, p, Ipv4(9), true);
  sim.after_packet(seconds(5), &b, p, Ipv4(9), true);
  sim.run();
  EXPECT_EQ(a.batch_sizes, (std::vector<std::size_t>{3}));
  EXPECT_EQ(b.batch_sizes, (std::vector<std::size_t>{1}));
  EXPECT_EQ(sim.events_processed(), 4u);
}

TEST(Simulator, DifferentMetadataNotCoalesced) {
  Simulator sim;
  RecordingTarget a;
  const Packet p = net::make_tcp(Ipv4(1), 1, Ipv4(2), 2, net::flags_syn());
  sim.after_packet(seconds(5), &a, p, Ipv4(9), true);
  sim.after_packet(seconds(5), &a, p, Ipv4(9), false);  // crossed differs
  sim.after_packet(seconds(6), &a, p, Ipv4(9), true);   // time differs
  sim.run();
  EXPECT_EQ(a.batch_sizes, (std::vector<std::size_t>{1, 1, 1}));
}

// ------------------------------------------------------------- Simulator --

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  util::TimePoint seen{};
  sim.after(seconds(10), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, kEpoch + seconds(10));
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(kEpoch + hours(2));
  EXPECT_EQ(sim.now(), kEpoch + hours(2));
}

TEST(Simulator, RunUntilDoesNotRunLaterEvents) {
  Simulator sim;
  bool early = false, late = false;
  sim.at(kEpoch + seconds(1), [&] { early = true; });
  sim.at(kEpoch + seconds(100), [&] { late = true; });
  sim.run_until(kEpoch + seconds(50));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.run_until(kEpoch + seconds(10));
  util::TimePoint seen{};
  sim.at(kEpoch + seconds(1), [&] { seen = sim.now(); });  // in the past
  sim.run();
  EXPECT_EQ(seen, kEpoch + seconds(10));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) sim.after(seconds(1), step);
  };
  sim.after(seconds(1), step);
  sim.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.now(), kEpoch + seconds(5));
  EXPECT_EQ(sim.events_processed(), 5u);
}

// -------------------------------------------------------- Delivery lanes --

// Reference scheduler: every event in one (time, seq) heap, with the
// simulator's coalescing rule (a packet event absorbs directly following
// deliveries that share its time, target, external and crossed).
class ReferenceSim {
 public:
  util::TimePoint now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }

  void at(util::TimePoint t, std::function<void()> fn) {
    Ev ev;
    ev.fn = std::move(fn);
    push(t < now_ ? now_ : t, std::move(ev));
  }
  void after(util::Duration d, std::function<void()> fn) {
    at(now_ + d, std::move(fn));
  }
  void after_timer(util::Duration d, TimerTarget* target, std::uint64_t tag) {
    Ev ev;
    ev.timer = target;
    ev.tag = tag;
    push(now_ + d, std::move(ev));
  }
  void after_packet(util::Duration d, PacketEventTarget* target,
                    const Packet& p, Ipv4 external, bool crossed) {
    Ev ev;
    ev.packet_target = target;
    ev.packet = p;
    ev.external = external;
    ev.crossed = crossed;
    push(now_ + d, std::move(ev));
  }

  void run() {
    while (!heap_.empty()) {
      Ev ev = heap_.top();
      heap_.pop();
      now_ = ev.time;
      if (ev.packet_target == nullptr) {
        if (ev.timer != nullptr) {
          ev.timer->on_timer(ev.tag);
        } else {
          ev.fn();
        }
        continue;
      }
      std::vector<Packet> batch{ev.packet};
      while (!heap_.empty()) {
        const Ev& next = heap_.top();
        if (next.time != ev.time || next.packet_target != ev.packet_target ||
            next.external != ev.external || next.crossed != ev.crossed) {
          break;
        }
        batch.push_back(next.packet);
        heap_.pop();
      }
      ev.packet_target->deliver_packets(batch, ev.external, ev.crossed);
    }
  }

 private:
  struct Ev {
    util::TimePoint time{};
    std::uint64_t seq{0};
    std::function<void()> fn;
    TimerTarget* timer{nullptr};
    std::uint64_t tag{0};
    PacketEventTarget* packet_target{nullptr};
    Packet packet{};
    Ipv4 external{};
    bool crossed{false};
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return std::tie(a.time, a.seq) > std::tie(b.time, b.seq);
    }
  };
  void push(util::TimePoint t, Ev ev) {
    ev.time = t;
    ev.seq = next_seq_++;
    heap_.push(std::move(ev));
  }

  std::priority_queue<Ev, std::vector<Ev>, Later> heap_;
  util::TimePoint now_{};
  std::uint64_t next_seq_{0};
};

// A self-scheduling random workload over any scheduler with the
// Simulator's API. Every firing and every packet batch is logged with
// the clock, and every schedule call logs the queue size, so two
// schedulers agree on the log iff they agree on pop order, batches and
// size(). Each firing draws the next schedules from one Rng, so a single
// order difference also derails everything after it.
template <typename Sim>
class LaneWorkload final : public TimerTarget {
 public:
  // Seven packet delays, including 0, which exceeds the queue's lanes.
  static constexpr std::array<std::int64_t, 7> kDelaysUs = {
      0, 1000, 20000, 2000, 1000000, 3000, 20001};
  static_assert(kDelaysUs.size() > EventQueue::kLanes);

  LaneWorkload(Sim& sim, std::uint64_t seed, int budget)
      : sim_(sim), rng_(seed), budget_(budget) {
    targets_[0].owner = this;
    targets_[1].owner = this;
    targets_[1].id = 1;
  }

  void start(int n) {
    for (int i = 0; i < n; ++i) schedule();
  }
  void on_timer(std::uint64_t tag) override { fired(1, tag); }

  /// (clock, kind, id-or-size) records: kind 0 callback, 1 timer,
  /// 2 packet, 3 batch header (id = target, size folded in), 4 pending.
  std::vector<std::tuple<std::int64_t, int, std::uint64_t>> log;

 private:
  struct Target final : PacketEventTarget {
    LaneWorkload* owner{nullptr};
    std::uint64_t id{0};
    void deliver_packets(std::span<Packet> packets, Ipv4 external,
                         bool crossed) override {
      owner->log.emplace_back(owner->sim_.now().usec, 3,
                              (id << 32) | (packets.size() << 8) |
                                  (external.value() << 1) | crossed);
      for (const Packet& p : packets) owner->fired(2, p.seq);
    }
  };

  void fired(int kind, std::uint64_t id) {
    log.emplace_back(sim_.now().usec, kind, id);
    const std::uint64_t spawn = rng_.below(3);
    for (std::uint64_t i = 0; i < spawn; ++i) schedule();
  }

  void schedule() {
    if (budget_ <= 0) return;
    --budget_;
    const std::uint64_t id = next_id_++;
    // Coarse millisecond delays make cross-lane and lane/heap time ties
    // common, so the seq tiebreak is exercised constantly.
    const util::Duration d = msec(static_cast<std::int64_t>(rng_.below(4)));
    switch (rng_.below(6)) {
      case 0:
        sim_.after(d, [this, id] { fired(0, id); });
        break;
      case 1:
        // Clamped to now: lands at the current timestamp.
        sim_.at(sim_.now() - msec(static_cast<std::int64_t>(rng_.below(5))),
                [this, id] { fired(0, id); });
        break;
      case 2:
        sim_.after_timer(d, this, id);
        break;
      default: {
        Packet p = net::make_tcp(Ipv4(1), 1, Ipv4(2), 2, net::flags_syn());
        p.seq = static_cast<std::uint32_t>(id);
        const util::Duration delay =
            util::usec(kDelaysUs[rng_.below(kDelaysUs.size())]);
        sim_.after_packet(delay, &targets_[rng_.below(2)], p,
                          Ipv4(static_cast<std::uint32_t>(rng_.below(2))),
                          rng_.chance(0.5));
        break;
      }
    }
    log.emplace_back(sim_.now().usec, 4, sim_.pending());
  }

  Sim& sim_;
  util::Rng rng_;
  int budget_;
  std::uint64_t next_id_{0};
  std::array<Target, 2> targets_;
};

TEST(EventQueueLanes, RandomInterleavingsMatchAReferenceHeap) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Simulator sim;
    LaneWorkload<Simulator> lanes(sim, seed, 3000);
    ReferenceSim ref;
    LaneWorkload<ReferenceSim> reference(ref, seed, 3000);
    lanes.start(20);
    reference.start(20);
    sim.run();
    ref.run();
    ASSERT_EQ(lanes.log, reference.log);
    EXPECT_EQ(sim.pending(), 0u);
  }
}

TEST(EventQueueLanes, OutOfOrderPushesFallBackToTheHeap) {
  // Drive the queue directly with a clock that jumps backwards, so lane
  // tails are regularly later than new pushes. Each pop must still be
  // the (time, seq) minimum of what is pending, heap timers included.
  RecordingTarget target;
  RecordingTimer timer;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    EventQueue q;
    std::set<std::pair<std::int64_t, std::uint64_t>> pending;
    std::uint64_t seq = 0;
    const auto pop_and_check = [&] {
      ASSERT_EQ(q.next_time().usec, pending.begin()->first);
      const Event ev = q.pop();
      ASSERT_EQ(std::make_pair(ev.time.usec, ev.seq), *pending.begin());
      pending.erase(pending.begin());
    };
    for (int step = 0; step < 3000; ++step) {
      if (!pending.empty() && rng.chance(0.3)) {
        pop_and_check();
      } else {
        const util::TimePoint now =
            kEpoch + msec(static_cast<std::int64_t>(rng.below(50)));
        if (rng.chance(0.2)) {
          q.push_timer(now, &timer, seq);
          pending.emplace(now.usec, seq++);
        } else {
          const util::Duration d =
              msec(static_cast<std::int64_t>(rng.below(6)));
          q.push_packet_after(now, d, &target, Packet{}, Ipv4(0), false);
          pending.emplace((now + d).usec, seq++);
        }
      }
      ASSERT_EQ(q.size(), pending.size());
    }
    while (!pending.empty()) {
      pop_and_check();
      ASSERT_EQ(q.size(), pending.size());
    }
    EXPECT_TRUE(q.empty());
  }
}

// ---------------------------------------------------------- BorderRouter --

TEST(BorderRouter, StablePeeringChoice) {
  BorderRouter border;
  border.add_peering("a", 0.5);
  border.add_peering("b", 0.5);
  const Ipv4 ext = Ipv4::from_octets(7, 7, 7, 7);
  const std::size_t first = border.default_peering_for(ext);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(border.default_peering_for(ext), first);
  }
}

TEST(BorderRouter, WeightsShapeDistribution) {
  BorderRouter border;
  border.add_peering("heavy", 0.9);
  border.add_peering("light", 0.1);
  int heavy = 0;
  constexpr int kHosts = 5000;
  for (int i = 0; i < kHosts; ++i) {
    const Ipv4 ext(0x10000000u + static_cast<std::uint32_t>(i) * 977u);
    heavy += border.default_peering_for(ext) == 0;
  }
  EXPECT_NEAR(heavy, kHosts * 0.9, kHosts * 0.05);
}

TEST(BorderRouter, RejectsBadWeight) {
  BorderRouter border;
  EXPECT_THROW(border.add_peering("zero", 0.0), std::invalid_argument);
}

class RecordingObserver : public PacketObserver {
 public:
  void observe(const Packet& p) override { seen.push_back(p); }
  std::vector<Packet> seen;
};

TEST(BorderRouter, TapsSeeOnlyTheirPeering) {
  BorderRouter border;
  border.add_peering("a", 1.0);
  border.add_peering("b", 1.0);
  RecordingObserver tap_a, tap_b;
  border.add_tap(0, &tap_a);
  border.add_tap(1, &tap_b);
  border.set_policy([](Ipv4 ext) { return ext.value() % 2; });

  const Ipv4 internal = Ipv4::from_octets(128, 125, 0, 1);
  const Ipv4 even(0x01000002), odd(0x01000003);
  border.carry(net::make_tcp(even, 1, internal, 80, net::flags_syn()), even);
  border.carry(net::make_tcp(odd, 1, internal, 80, net::flags_syn()), odd);
  EXPECT_EQ(tap_a.seen.size(), 1u);
  EXPECT_EQ(tap_b.seen.size(), 1u);
  EXPECT_EQ(border.peering(0).packets, 1u);
  EXPECT_EQ(border.peering(1).packets, 1u);
}

// -------------------------------------------------------------- Network --

class SinkRecorder : public PacketSink {
 public:
  void on_packet(const Packet& p) override { received.push_back(p); }
  std::vector<Packet> received;
};

struct NetworkFixture : ::testing::Test {
  NetworkFixture()
      : network(sim, {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16)}) {}
  Simulator sim;
  Network network;
  const Ipv4 internal_addr = Ipv4::from_octets(128, 125, 1, 1);
  const Ipv4 external_addr = Ipv4::from_octets(66, 1, 1, 1);
};

TEST_F(NetworkFixture, DeliversToAttachedSink) {
  SinkRecorder sink;
  network.attach(internal_addr, &sink);
  network.send(net::make_tcp(external_addr, 1234, internal_addr, 80,
                             net::flags_syn()));
  sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].dport, 80);
  EXPECT_EQ(network.packets_delivered(), 1u);
}

TEST_F(NetworkFixture, StampsDeliveryTime) {
  SinkRecorder sink;
  network.attach(internal_addr, &sink);
  network.set_external_latency(msec(20));
  network.send(net::make_tcp(external_addr, 1, internal_addr, 80,
                             net::flags_syn()));
  sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].time, kEpoch + msec(20));
}

TEST_F(NetworkFixture, DropsToUnattachedAddress) {
  network.send(net::make_tcp(external_addr, 1, internal_addr, 80,
                             net::flags_syn()));
  sim.run();
  EXPECT_EQ(network.packets_dropped(), 1u);
}

TEST_F(NetworkFixture, DetachRespectsOwner) {
  SinkRecorder old_owner, new_owner;
  network.attach(internal_addr, &old_owner);
  network.attach(internal_addr, &new_owner);  // address reuse
  network.detach(internal_addr, &old_owner);  // stale detach: no-op
  EXPECT_EQ(network.owner(internal_addr), &new_owner);
  network.detach(internal_addr, &new_owner);
  EXPECT_EQ(network.owner(internal_addr), nullptr);
}

TEST_F(NetworkFixture, InternalClassification) {
  EXPECT_TRUE(network.is_internal(internal_addr));
  EXPECT_FALSE(network.is_internal(external_addr));
}

TEST_F(NetworkFixture, BorderTapSeesCrossingTraffic) {
  network.border().add_peering("only", 1.0);
  RecordingObserver tap;
  network.border().add_tap(0, &tap);
  SinkRecorder sink;
  network.attach(internal_addr, &sink);

  network.send(net::make_tcp(external_addr, 1, internal_addr, 80,
                             net::flags_syn()));
  sim.run();
  ASSERT_EQ(tap.seen.size(), 1u);
  // Tap sees the packet with its delivery timestamp set.
  EXPECT_GT(tap.seen[0].time.usec, 0);
}

TEST_F(NetworkFixture, InternalTrafficInvisibleToBorder) {
  network.border().add_peering("only", 1.0);
  RecordingObserver tap;
  network.border().add_tap(0, &tap);
  SinkRecorder sink;
  const Ipv4 other_internal = Ipv4::from_octets(128, 125, 2, 2);
  network.attach(other_internal, &sink);

  // Internal probe: crosses no border, invisible to the tap.
  network.send(net::make_tcp(internal_addr, 1, other_internal, 22,
                             net::flags_syn()));
  sim.run();
  EXPECT_TRUE(tap.seen.empty());
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST_F(NetworkFixture, OutboundCrossingAlsoObserved) {
  network.border().add_peering("only", 1.0);
  RecordingObserver tap;
  network.border().add_tap(0, &tap);
  // SYN-ACK from an internal server to an external client.
  network.send(net::make_tcp(internal_addr, 80, external_addr, 1234,
                             net::flags_syn_ack()));
  sim.run();
  ASSERT_EQ(tap.seen.size(), 1u);
  EXPECT_TRUE(tap.seen[0].flags.is_syn_ack());
}

TEST_F(NetworkFixture, InternalLatencyShorterThanExternal) {
  SinkRecorder internal_sink, far_sink;
  const Ipv4 other = Ipv4::from_octets(128, 125, 3, 3);
  network.attach(other, &internal_sink);
  network.attach(internal_addr, &far_sink);
  network.set_internal_latency(msec(1));
  network.set_external_latency(msec(50));
  network.send(net::make_tcp(internal_addr, 1, other, 2, net::flags_syn()));
  network.send(net::make_tcp(external_addr, 1, internal_addr, 2,
                             net::flags_syn()));
  sim.run();
  ASSERT_EQ(internal_sink.received.size(), 1u);
  ASSERT_EQ(far_sink.received.size(), 1u);
  EXPECT_EQ(internal_sink.received[0].time, kEpoch + msec(1));
  EXPECT_EQ(far_sink.received[0].time, kEpoch + msec(50));
}

// ---------------------------------------------------- Network owner table --

struct NetworkOwnerTable : NetworkFixture {};

TEST_F(NetworkOwnerTable, ExactOwnerInsidePrefixBlockWins) {
  SinkRecorder block, host;
  network.attach_prefix(Prefix(Ipv4::from_octets(128, 125, 1, 0), 24),
                        &block);
  network.attach(internal_addr, &host);
  EXPECT_EQ(network.owner(internal_addr), &host);
  EXPECT_EQ(network.owner(Ipv4::from_octets(128, 125, 1, 2)), &block);
  EXPECT_EQ(network.owner(Ipv4::from_octets(128, 125, 2, 1)), nullptr);
  // Carving the host back out returns its address to the block.
  network.detach(internal_addr, &host);
  EXPECT_EQ(network.owner(internal_addr), &block);
}

TEST_F(NetworkOwnerTable, ReattachReplacesEarlierOwner) {
  SinkRecorder first, second;
  network.attach(internal_addr, &first);
  network.attach(internal_addr, &second);
  EXPECT_EQ(network.owner(internal_addr), &second);
  network.send(net::make_tcp(external_addr, 1, internal_addr, 80,
                             net::flags_syn()));
  sim.run();
  EXPECT_TRUE(first.received.empty());
  EXPECT_EQ(second.received.size(), 1u);
}

TEST_F(NetworkOwnerTable, DetachByNonOwnerDoesNothing) {
  SinkRecorder owner, stranger;
  for (const Ipv4 addr : {internal_addr, external_addr}) {
    network.attach(addr, &owner);
    network.detach(addr, &stranger);
    EXPECT_EQ(network.owner(addr), &owner);
  }
  // Detaching an address nobody attached, in a page never allocated,
  // neither crashes nor allocates.
  const std::size_t bytes = network.owner_table_bytes();
  network.detach(Ipv4::from_octets(128, 125, 200, 1), &owner);
  EXPECT_EQ(network.owner_table_bytes(), bytes);
}

TEST_F(NetworkOwnerTable, ExternalAttachStillRoutes) {
  SinkRecorder client;
  network.attach(external_addr, &client);
  EXPECT_FALSE(network.is_internal(external_addr));
  EXPECT_EQ(network.owner(external_addr), &client);
  network.send(net::make_tcp(internal_addr, 80, external_addr, 1234,
                             net::flags_syn_ack()));
  sim.run();
  ASSERT_EQ(client.received.size(), 1u);
  EXPECT_EQ(client.received[0].time, kEpoch + msec(20));
  network.detach(external_addr, &client);
  EXPECT_EQ(network.owner(external_addr), nullptr);
}

TEST_F(NetworkOwnerTable, InternalSlash8AllocatesOnePagePlusDirectory) {
  Network wide(sim, {Prefix(Ipv4::from_octets(10, 0, 0, 0), 8)});
  EXPECT_EQ(wide.owner_table_bytes(), 0u);
  SinkRecorder a, b;
  wide.attach(Ipv4::from_octets(10, 200, 3, 4), &a);
  // One /24 page of sink pointers plus the /8's directory of 2^16 page
  // pointers; the 2^24-address prefix itself costs nothing.
  const std::size_t directory = (std::size_t{1} << 16) * sizeof(void*);
  const std::size_t page = 256 * sizeof(void*);
  EXPECT_EQ(wide.owner_table_bytes(), directory + page);
  wide.attach(Ipv4::from_octets(10, 200, 3, 5), &b);  // same /24
  EXPECT_EQ(wide.owner_table_bytes(), directory + page);
  EXPECT_EQ(wide.owner(Ipv4::from_octets(10, 200, 3, 4)), &a);
  EXPECT_EQ(wide.owner(Ipv4::from_octets(10, 200, 3, 5)), &b);
  EXPECT_EQ(wide.owner(Ipv4::from_octets(10, 200, 4, 4)), nullptr);
  EXPECT_EQ(wide.owner(Ipv4::from_octets(10, 255, 255, 255)), nullptr);
}

TEST_F(NetworkOwnerTable, ShortInternalPrefixUsesTheMap) {
  // A prefix shorter than /8 would need a directory proportional to its
  // size, so its exact owners live in the map instead.
  Network wide(sim, {Prefix(Ipv4::from_octets(16, 0, 0, 0), 4)});
  SinkRecorder host;
  const Ipv4 addr = Ipv4::from_octets(20, 1, 2, 3);
  wide.attach(addr, &host);
  EXPECT_TRUE(wide.is_internal(addr));
  EXPECT_EQ(wide.owner(addr), &host);
  EXPECT_EQ(wide.owner_table_bytes(), 0u);
}

}  // namespace
}  // namespace svcdisc::sim
