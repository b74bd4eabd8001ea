// Differential test of the scan-record fold (DESIGN.md §16, "Scan-record
// lifecycle"). A finished scan's outcomes are freed once its completion
// hook returns; the prober keeps a ScanSummary. Here every full record is
// captured through the hook and the prober's own summaries are checked
// against it field by field, and the report readers are checked against
// copies of their full-record versions from before the fold existed.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "active/scan_scheduler.h"
#include "core/engine.h"
#include "core/firewall_confirm.h"
#include "core/report.h"
#include "workload/campus.h"

namespace svcdisc {
namespace {

using active::ProbeOutcome;
using active::ProbeStatus;
using active::ScanRecord;
using active::ScanSummary;
using net::Ipv4;

// ------------------------------------------------ full-record references --

bool is_open(ProbeStatus status) {
  return status == ProbeStatus::kOpen || status == ProbeStatus::kOpenUdp;
}

// core::address_times_from_scans as it read full records.
std::unordered_map<Ipv4, util::TimePoint> full_address_times(
    std::span<const ScanRecord> scans,
    const std::function<bool(const ScanRecord&)>& scan_pred,
    const core::ServiceFilter& filter = {}) {
  std::unordered_map<Ipv4, util::TimePoint> times;
  for (const ScanRecord& scan : scans) {
    if (scan_pred && !scan_pred(scan)) continue;
    for (const ProbeOutcome& outcome : scan.outcomes) {
      if (!is_open(outcome.status)) continue;
      if (!filter.accepts(outcome.key)) continue;
      const auto [it, inserted] = times.emplace(outcome.key.addr, outcome.when);
      if (!inserted && outcome.when < it->second) it->second = outcome.when;
    }
  }
  return times;
}

// core::confirm_firewalls as it read full records.
core::FirewallConfirmation full_confirm_firewalls(
    const std::unordered_set<Ipv4>& passive_only_addresses,
    const passive::ServiceTable& passive_table,
    std::span<const ScanRecord> scans) {
  core::FirewallConfirmation result;
  result.candidates = passive_only_addresses;
  for (const ScanRecord& scan : scans) {
    std::unordered_map<Ipv4, std::uint8_t> seen;  // bit0 RST, bit1 drop
    for (const ProbeOutcome& outcome : scan.outcomes) {
      if (!result.candidates.contains(outcome.key.addr)) continue;
      if (outcome.key.proto != net::Proto::kTcp) continue;
      auto& bits = seen[outcome.key.addr];
      if (outcome.status == ProbeStatus::kClosed) bits |= 1;
      if (outcome.status == ProbeStatus::kFiltered) {
        bits |= 2;
        if (const passive::ServiceRecord* record =
                passive_table.find(outcome.key)) {
          if (record->last_activity >= scan.started &&
              record->first_seen <= scan.finished) {
            result.by_activity.insert(outcome.key.addr);
          }
        }
      }
    }
    for (const auto& [addr, bits] : seen) {
      if (bits == 3) result.by_mixed_response.insert(addr);
    }
  }
  return result;
}

// ------------------------------------------------------------- campaigns --

struct Variant {
  const char* name;
  bool adaptive{false};
  bool host_discovery{false};
  bool udp{false};
  bool udp_service_probes{false};
};

/// Totals across every campaign, so no comparison below passes only
/// because the data it compares is empty.
struct Coverage {
  std::size_t scans{0};
  std::size_t pinged{0};
  std::size_t status[ScanSummary::kStatuses]{};
  std::size_t mixed{0};
  std::size_t kept_filtered{0};
  std::size_t by_mixed{0};
  std::size_t by_activity{0};
};

void check_campaign(const Variant& v, std::uint64_t seed, Coverage* cov) {
  SCOPED_TRACE(std::string(v.name) + " seed " + std::to_string(seed));
  auto cfg = workload::CampusConfig::tiny();
  cfg.duration = util::days(1);
  cfg.seed = seed;
  // UDP variants populate UDP services, so UDP probes can find some.
  cfg.udp_mode = v.udp;
  workload::Campus campus(cfg);

  core::EngineConfig engine_cfg;
  engine_cfg.scan_period = util::hours(6);
  engine_cfg.adaptive_prober = v.adaptive;
  engine_cfg.adaptive.probe_budget = 400;
  engine_cfg.scan_count = v.adaptive ? 3 : 0;
  core::DiscoveryEngine engine(campus, engine_cfg);

  std::vector<ScanRecord> records;
  const auto capture = [&](const ScanRecord& r) { records.push_back(r); };
  // The engine schedules only the campus's own spec, so the fixed
  // variants drive the prober with a scheduler of their own.
  std::unique_ptr<active::ScanScheduler> scheduler;
  if (v.adaptive) {
    engine.scheduler()->on_scan_complete = capture;
  } else {
    active::ScanSpec spec;
    spec.targets = campus.scan_targets();
    spec.tcp_ports = campus.tcp_ports();
    spec.udp_ports = campus.udp_ports();
    spec.probes_per_sec = cfg.probe_rate_per_sec;
    spec.host_discovery = v.host_discovery;
    spec.udp_service_probes = v.udp_service_probes;
    active::ScheduleConfig schedule;
    schedule.first_scan = util::kEpoch + util::hours(1);
    schedule.period = util::hours(6);
    schedule.count = 3;
    scheduler = std::make_unique<active::ScanScheduler>(
        campus.simulator(), engine.prober(), spec, schedule);
    scheduler->on_scan_complete = capture;
    scheduler->arm();
  }
  engine.run();

  const std::vector<ScanSummary>& summaries = engine.prober().scans();
  const passive::ServiceTable& passive_table = engine.monitor().table();
  ASSERT_GE(records.size(), 3u);
  ASSERT_EQ(summaries.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE("scan " + std::to_string(i));
    const ScanRecord& r = records[i];
    const ScanSummary& s = summaries[i];
    EXPECT_EQ(s.index, r.index);
    EXPECT_EQ(s.started, r.started);
    EXPECT_EQ(s.finished, r.finished);
    EXPECT_EQ(s.hosts_pinged, r.hosts_pinged);
    EXPECT_EQ(s.hosts_alive, r.hosts_alive);
    EXPECT_EQ(s.probes(), r.outcomes.size());
    for (std::size_t st = 0; st < ScanSummary::kStatuses; ++st) {
      const auto status = static_cast<ProbeStatus>(st);
      EXPECT_EQ(s.count(status), r.count(status)) << "status " << st;
      cov->status[st] += s.count(status);
    }
    EXPECT_EQ(s.open_services(), r.open_services());
    std::vector<util::TimePoint> open_times;
    for (const ProbeOutcome& o : r.outcomes) {
      if (is_open(o.status)) open_times.push_back(o.when);
    }
    ASSERT_EQ(s.opens.size(), open_times.size());
    for (std::size_t k = 0; k < open_times.size(); ++k) {
      EXPECT_EQ(s.opens[k].when, open_times[k]) << "open " << k;
    }
    // Kept: exactly the unanswered probes of services the combined
    // monitor had discovered by the scan's end.
    std::vector<passive::ServiceKey> known_filtered;
    for (const ProbeOutcome& o : r.outcomes) {
      if (o.status != ProbeStatus::kFiltered) continue;
      const passive::ServiceRecord* known = passive_table.find(o.key);
      if (known && known->first_seen <= r.finished) {
        known_filtered.push_back(o.key);
      }
    }
    EXPECT_EQ(s.kept_filtered, known_filtered);
    ++cov->scans;
    cov->pinged += s.hosts_pinged;
    cov->mixed += s.mixed_tcp_addrs.size();
    cov->kept_filtered += s.kept_filtered.size();
  }

  // The report readers give what their full-record versions gave.
  EXPECT_EQ(core::address_times_from_scans(summaries, nullptr),
            full_address_times(records, nullptr));
  core::ServiceFilter web;
  web.proto = net::Proto::kTcp;
  web.port = net::Port{80};
  EXPECT_EQ(core::address_times_from_scans(
                summaries,
                [](const ScanSummary& s) { return s.index % 2 == 1; }, web),
            full_address_times(
                records, [](const ScanRecord& r) { return r.index % 2 == 1; },
                web));

  const util::TimePoint end = util::kEpoch + cfg.duration;
  const auto active_found =
      core::addresses_found(engine.prober().table(), end);
  std::unordered_set<Ipv4> passive_only;
  for (const Ipv4 addr : core::addresses_found(passive_table, end)) {
    if (!active_found.contains(addr)) passive_only.insert(addr);
  }
  // Every address as a candidate too, so both methods see the addresses
  // the prober did answer from.
  std::unordered_set<Ipv4> everyone(passive_only);
  for (const ScanRecord& r : records) {
    for (const ProbeOutcome& o : r.outcomes) everyone.insert(o.key.addr);
  }
  for (const auto* candidates : {&passive_only, &everyone}) {
    const auto got =
        core::confirm_firewalls(*candidates, passive_table, summaries);
    const auto want =
        full_confirm_firewalls(*candidates, passive_table, records);
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.by_mixed_response, want.by_mixed_response);
    EXPECT_EQ(got.by_activity, want.by_activity);
    cov->by_mixed += want.by_mixed_response.size();
    cov->by_activity += want.by_activity.size();
  }
}

TEST(ScanSummaryDifferential, SummariesMatchTheFullRecords) {
  const Variant variants[] = {
      {"fixed TCP sweep"},
      {"fixed, host discovery", false, /*host_discovery=*/true},
      {"fixed, TCP + generic UDP", false, false, /*udp=*/true},
      {"fixed, host discovery + UDP service probes", false, true, true,
       /*udp_service_probes=*/true},
      {"adaptive, budget 400", /*adaptive=*/true},
  };
  Coverage cov;
  for (const Variant& v : variants) {
    for (const std::uint64_t seed : {3u, 17u, 2024u}) {
      check_campaign(v, seed, &cov);
    }
  }
  EXPECT_GE(cov.scans, 45u);
  EXPECT_GT(cov.pinged, 0u);
  for (const ProbeStatus status :
       {ProbeStatus::kOpen, ProbeStatus::kClosed, ProbeStatus::kFiltered,
        ProbeStatus::kOpenUdp, ProbeStatus::kMaybeOpen,
        ProbeStatus::kNoHost}) {
    EXPECT_GT(cov.status[static_cast<std::size_t>(status)], 0u)
        << "status " << static_cast<int>(status);
  }
  EXPECT_GT(cov.mixed, 0u);
  EXPECT_GT(cov.kept_filtered, 0u);
  EXPECT_GT(cov.by_mixed, 0u);
  EXPECT_GT(cov.by_activity, 0u);
}

// A scan's outcome buffer is reused: the next scan starts empty, and the
// summaries of earlier scans are untouched by later ones.
TEST(ScanSummaryDifferential, OutcomeBufferIsReusedNotCarriedOver) {
  auto cfg = workload::CampusConfig::tiny();
  cfg.duration = util::days(1);
  workload::Campus campus(cfg);
  core::EngineConfig engine_cfg;
  engine_cfg.scan_count = 3;
  engine_cfg.scan_period = util::hours(6);
  core::DiscoveryEngine engine(campus, engine_cfg);
  std::vector<std::size_t> sizes;
  std::vector<std::size_t> opens;
  engine.scheduler()->on_scan_complete = [&](const ScanRecord& r) {
    sizes.push_back(r.outcomes.size());
    opens.push_back(r.open_services().size());
  };
  engine.run();
  ASSERT_EQ(sizes.size(), 3u);
  const std::size_t sweep =
      campus.scan_targets().size() * campus.tcp_ports().size();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sweep);
    EXPECT_EQ(engine.prober().scans()[i].probes(), sweep);
    EXPECT_EQ(engine.prober().scans()[i].opens.size(), opens[i]);
  }
}

}  // namespace
}  // namespace svcdisc
