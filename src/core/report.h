// Shared result-shaping helpers: turning service tables and scan records
// into the address-level views the paper's tables and figures use.
//
// The paper counts *server IP addresses*: an address is "found" by a
// method at the earliest time any studied service on it was discovered.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "active/prober.h"
#include "net/ipv4.h"
#include "net/packet.h"
#include "net/ports.h"
#include "passive/service_table.h"
#include "util/sim_time.h"

namespace svcdisc::core {

/// Filters applied when collapsing a service table to addresses.
struct ServiceFilter {
  std::optional<net::Proto> proto;
  std::optional<net::Port> port;
  /// Arbitrary address predicate (e.g. "in the VPN block"); null = all.
  std::function<bool(net::Ipv4)> address_pred;

  bool accepts(const passive::ServiceKey& key) const {
    if (proto && key.proto != *proto) return false;
    if (port && key.port != *port) return false;
    if (address_pred && !address_pred(key.addr)) return false;
    return true;
  }
};

/// Earliest per-address discovery time in `table`, considering only
/// services passing `filter` and discoveries at or before `cutoff`.
std::unordered_map<net::Ipv4, util::TimePoint> address_discovery_times(
    const passive::ServiceTable& table, util::TimePoint cutoff,
    const ServiceFilter& filter = {});

/// Addresses found at or before `cutoff`.
std::unordered_set<net::Ipv4> addresses_found(
    const passive::ServiceTable& table, util::TimePoint cutoff,
    const ServiceFilter& filter = {});

/// Earliest per-address open time across a subset of scans; `scan_pred`
/// selects which scans participate (time-of-day/frequency studies, §5.1).
std::unordered_map<net::Ipv4, util::TimePoint> address_times_from_scans(
    std::span<const active::ScanSummary> scans,
    const std::function<bool(const active::ScanSummary&)>& scan_pred,
    const ServiceFilter& filter = {});

/// Per-address activity weights accumulated over a whole campaign:
/// total inbound flows and distinct clients across the address's
/// services. Derived from the full passive table, like the paper's
/// popularity metric (§4.1.2).
struct AddressWeights {
  std::unordered_map<net::Ipv4, double> flows;
  std::unordered_map<net::Ipv4, double> clients;
};
AddressWeights address_weights(const passive::ServiceTable& table,
                               const ServiceFilter& filter = {});

}  // namespace svcdisc::core
