#include "sim/network.h"

#include <utility>

namespace svcdisc::sim {

Network::Network(Simulator& sim, std::vector<net::Prefix> internal)
    : sim_(sim) {
  internal_.reserve(internal.size());
  for (const net::Prefix& prefix : internal) internal_.push_back({prefix, {}});
}

std::size_t Network::locate(net::Ipv4 addr) const {
  for (std::size_t i = 0; i < internal_.size(); ++i) {
    if (internal_[i].prefix.contains(addr)) return i;
  }
  return kNoBlock;
}

PacketSink** Network::table_slot(net::Ipv4 addr, std::size_t block,
                                 bool create) {
  Block& b = internal_[block];
  const std::uint32_t offset = addr.value() - b.prefix.base().value();
  if (b.pages.empty()) {
    if (!create) return nullptr;
    b.pages.resize(static_cast<std::size_t>((b.prefix.size() + 255) / 256));
  }
  std::unique_ptr<OwnerPage>& page = b.pages[offset >> 8];
  if (!page) {
    if (!create) return nullptr;
    page = std::make_unique<OwnerPage>();
  }
  return &(*page)[offset & 0xFF];
}

void Network::attach(net::Ipv4 addr, PacketSink* sink) {
  const std::size_t block = locate(addr);
  if (tabled(block)) {
    *table_slot(addr, block, /*create=*/true) = sink;
  } else {
    other_owners_[addr] = sink;
  }
}

void Network::detach(net::Ipv4 addr, const PacketSink* sink) {
  const std::size_t block = locate(addr);
  if (tabled(block)) {
    PacketSink** slot = table_slot(addr, block, /*create=*/false);
    if (slot != nullptr && *slot == sink) *slot = nullptr;
    return;
  }
  const auto it = other_owners_.find(addr);
  if (it != other_owners_.end() && it->second == sink) other_owners_.erase(it);
}

void Network::attach_prefix(net::Prefix prefix, PacketSink* sink) {
  prefix_owners_.emplace_back(prefix, sink);
}

PacketSink* Network::owner_in(net::Ipv4 addr, std::size_t block) const {
  if (tabled(block)) {
    const Block& b = internal_[block];
    if (!b.pages.empty()) {
      const std::uint32_t offset = addr.value() - b.prefix.base().value();
      if (const OwnerPage* page = b.pages[offset >> 8].get()) {
        if (PacketSink* sink = (*page)[offset & 0xFF]) return sink;
      }
    }
  } else if (!other_owners_.empty()) {
    const auto it = other_owners_.find(addr);
    if (it != other_owners_.end()) return it->second;
  }
  for (const auto& [prefix, sink] : prefix_owners_) {
    if (prefix.contains(addr)) return sink;
  }
  return nullptr;
}

PacketSink* Network::owner(net::Ipv4 addr) const {
  return owner_in(addr, locate(addr));
}

std::size_t Network::owner_table_bytes() const {
  std::size_t bytes = 0;
  for (const Block& b : internal_) {
    bytes += b.pages.size() * sizeof(b.pages[0]);
    for (const auto& page : b.pages) {
      if (page) bytes += sizeof(OwnerPage);
    }
  }
  return bytes;
}

bool Network::is_internal(net::Ipv4 addr) const {
  return locate(addr) != kNoBlock;
}

void Network::send(net::Packet p) {
  ++packets_sent_;
  const bool src_internal = is_internal(p.src);
  const bool dst_internal = is_internal(p.dst);
  const bool crossed = src_internal != dst_internal;
  const net::Ipv4 external = src_internal ? p.dst : p.src;
  const util::Duration latency =
      crossed ? external_latency_ : internal_latency_;
  sim_.after_packet(latency, this, p, external, crossed);
}

void Network::deliver_packets(std::span<net::Packet> packets,
                              net::Ipv4 external, bool crossed) {
  const util::TimePoint now = sim_.now();
  for (net::Packet& p : packets) p.time = now;
  // All packets share one external endpoint, hence one peering: the
  // border router amortizes the policy lookup and tap dispatch across
  // the whole batch (taps never schedule events or touch sinks, so
  // observing the batch before delivering it is order-equivalent to the
  // per-packet interleave).
  if (crossed && border_.peering_count() > 0) {
    border_.carry_batch(packets, external);
  }
  for (const net::Packet& p : packets) {
    if (PacketSink* sink = owner(p.dst)) {
      ++packets_delivered_;
      sink->on_packet(p);
    } else {
      ++packets_dropped_;
    }
  }
}

}  // namespace svcdisc::sim
