#include "core/firewall_confirm.h"

namespace svcdisc::core {

std::unordered_set<net::Ipv4> FirewallConfirmation::confirmed() const {
  std::unordered_set<net::Ipv4> all;
  for (const net::Ipv4 addr : candidates) {
    if (by_mixed_response.contains(addr) || by_activity.contains(addr)) {
      all.insert(addr);
    }
  }
  return all;
}

FirewallConfirmation confirm_firewalls(
    const std::unordered_set<net::Ipv4>& passive_only_addresses,
    const passive::ServiceTable& passive_table,
    std::span<const active::ScanSummary> scans) {
  FirewallConfirmation result;
  result.candidates = passive_only_addresses;

  for (const active::ScanSummary& scan : scans) {
    // Method 1: a RST from one port and silence from another in one scan.
    for (const net::Ipv4 addr : scan.mixed_tcp_addrs) {
      if (result.candidates.contains(addr)) {
        result.by_mixed_response.insert(addr);
      }
    }
    // Method 2: activity on an unanswered service observed while the scan
    // was running.
    for (const passive::ServiceKey& key : scan.kept_filtered) {
      if (!result.candidates.contains(key.addr)) continue;
      if (const passive::ServiceRecord* record = passive_table.find(key)) {
        if (record->last_activity >= scan.started &&
            record->first_seen <= scan.finished) {
          result.by_activity.insert(key.addr);
        }
      }
    }
  }
  return result;
}

}  // namespace svcdisc::core
