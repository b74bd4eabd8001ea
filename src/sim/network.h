// The packet plane: address registration, routing, and border crossing.
//
// Network::send() models one-way delivery with a fixed latency per path
// class (intra-campus vs across the border). On delivery the packet is
// stamped with the arrival time, offered to the border taps if it crossed
// the border, and handed to the sink registered for the destination
// address (if any; otherwise it is dropped silently, like a packet to an
// unused address).
//
// Routing is direct-indexed: one scan of the internal prefixes answers
// both is_internal() and which table holds the exact owner. Each
// internal prefix of /8 or longer keeps its exact owners in a table
// indexed by address offset, allocated a page (one /24) at a time on
// first attach, so memory follows the attached /24s, not the prefix size
// (the directory of page pointers is the only per-prefix cost).
// Addresses outside every such table use a hash-map fallback.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "net/packet.h"
#include "sim/border_router.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace svcdisc::sim {

class Network final : public PacketEventTarget {
 public:
  /// `internal` lists the campus prefixes; everything else is "the
  /// Internet".
  Network(Simulator& sim, std::vector<net::Prefix> internal);

  /// Registers `sink` as the owner of `addr`. A later attach for the same
  /// address replaces the earlier one (address reuse in dynamic pools).
  void attach(net::Ipv4 addr, PacketSink* sink);
  /// Unregisters `addr` if owned by `sink` (no-op otherwise, so a host
  /// releasing a reassigned lease cannot evict the new owner).
  void detach(net::Ipv4 addr, const PacketSink* sink);
  /// Registers `sink` as the owner of every address in `prefix` that has
  /// no per-address owner. One entry routes an arbitrarily large block —
  /// the scale universes use this so a /8 of probe-able addresses costs
  /// one vector slot instead of 16M map entries. Per-address attach()
  /// always wins (checked first), so individual hosts can still be
  /// carved out of an owned block.
  void attach_prefix(net::Prefix prefix, PacketSink* sink);
  /// Current owner of `addr`, or nullptr.
  PacketSink* owner(net::Ipv4 addr) const;

  /// True when `addr` is inside a campus prefix.
  bool is_internal(net::Ipv4 addr) const;

  /// Sends `p`, scheduling delivery after the appropriate latency.
  /// Border-crossing packets are observed by the chosen peering's taps at
  /// delivery time.
  void send(net::Packet p);

  // PacketEventTarget — invoked by the simulator at delivery time, with
  // same-timestamp deliveries coalesced into one span.
  void deliver_packets(std::span<net::Packet> packets, net::Ipv4 external,
                       bool crossed) override;

  BorderRouter& border() { return border_; }
  const BorderRouter& border() const { return border_; }
  Simulator& simulator() { return sim_; }

  /// One-way latencies (defaults: 1 ms on campus, 20 ms across the
  /// border).
  void set_internal_latency(util::Duration d) { internal_latency_ = d; }
  void set_external_latency(util::Duration d) { external_latency_ = d; }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  /// Bytes held by the exact-owner tables: page directories plus pages.
  std::size_t owner_table_bytes() const;

 private:
  /// Exact owners of one /24-aligned run of 256 addresses.
  using OwnerPage = std::array<PacketSink*, 256>;
  /// One internal prefix and its exact-owner pages (directory empty
  /// until the first attach; none at all for prefixes shorter than /8).
  struct Block {
    net::Prefix prefix;
    std::vector<std::unique_ptr<OwnerPage>> pages;
  };
  static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);
  /// Shortest prefix that gets an owner table (a /8 directory is 64 Ki
  /// page pointers).
  static constexpr int kMinTableBits = 8;

  /// Index of the first internal prefix containing `addr`, or kNoBlock.
  std::size_t locate(net::Ipv4 addr) const;
  bool tabled(std::size_t block) const {
    return block != kNoBlock && internal_[block].prefix.bits() >= kMinTableBits;
  }
  /// `addr`'s entry in tabled `block`, allocating its page when `create`;
  /// nullptr when the page is absent and `create` is false.
  PacketSink** table_slot(net::Ipv4 addr, std::size_t block, bool create);
  /// Owner of `addr`, whose locate() result is `block`.
  PacketSink* owner_in(net::Ipv4 addr, std::size_t block) const;

  Simulator& sim_;
  std::vector<Block> internal_;
  BorderRouter border_;
  /// Exact owners outside every owner table (external addresses).
  std::unordered_map<net::Ipv4, PacketSink*> other_owners_;
  /// Block owners, consulted after the exact map misses. A handful of
  /// entries at most (one per scale block), so a linear scan beats any
  /// trie here.
  std::vector<std::pair<net::Prefix, PacketSink*>> prefix_owners_;
  util::Duration internal_latency_{util::msec(1)};
  util::Duration external_latency_{util::msec(20)};
  std::uint64_t packets_sent_{0};
  std::uint64_t packets_delivered_{0};
  std::uint64_t packets_dropped_{0};
};

}  // namespace svcdisc::sim
