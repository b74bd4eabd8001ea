// Firewall confirmation (paper §4.2.4).
//
// Candidate firewalled servers are those seen passively but never
// actively. The paper confirms them two ways:
//   1. mixed probe responses in a single scan — RSTs from some ports but
//     silence from others means the host is up and selectively dropping;
//   2. passive activity observed during a scan whose probes to the same
//     service got no response — the server was demonstrably available
//     while ignoring the prober.
//
// Both read scan summaries, not full records: method 1 their mixed
// RST/silence addresses, method 2 their kept unanswered TCP probes. The
// serial engine keeps the probes of services the combined monitor had
// discovered when the scan finished: every probe method 2 can match
// against that table, unless a discovery made after the scan is stamped
// before its end (DESIGN.md §16, "Scan-record lifecycle").
#pragma once

#include <span>
#include <unordered_set>

#include "active/prober.h"
#include "net/ipv4.h"
#include "passive/service_table.h"

namespace svcdisc::core {

struct FirewallConfirmation {
  std::unordered_set<net::Ipv4> candidates;        ///< passive-only servers
  std::unordered_set<net::Ipv4> by_mixed_response; ///< method 1
  std::unordered_set<net::Ipv4> by_activity;       ///< method 2
  /// Candidates confirmed by at least one method.
  std::unordered_set<net::Ipv4> confirmed() const;
};

/// Runs both confirmation methods over the campaign's scans.
FirewallConfirmation confirm_firewalls(
    const std::unordered_set<net::Ipv4>& passive_only_addresses,
    const passive::ServiceTable& passive_table,
    std::span<const active::ScanSummary> scans);

}  // namespace svcdisc::core
