// Table 4: traits and subsequent categorization of IP addresses —
// the 12-hour observations refined by the remaining 18-day campaign and
// address transience.
#include <cstdio>

#include "analysis/table.h"
#include "bench_common.h"
#include "core/categorize.h"
#include "core/report.h"

namespace svcdisc {

int run() {
  auto campaign = bench::make_campaign(workload::CampusConfig::dtcp1_18d(),
                                       bench::dtcp1_engine_config());
  bench::print_header("Table 4: extended address categorization (DTCP1-18d)",
                      campaign);

  bench::Stopwatch watch;
  campaign.e().run();
  watch.report("DTCP1-18d campaign");

  const auto boundary = util::kEpoch + util::hours(12);
  const auto end = util::kEpoch + campaign.c().config().duration;

  // 12-hour view.
  const auto passive_12h =
      core::addresses_found(campaign.e().monitor().table(), boundary);
  const auto active_12h = core::address_times_from_scans(
      campaign.e().prober().scans(),
      [](const active::ScanSummary& s) { return s.index == 0; });

  // Subsequent view. For addresses not yet known, any later passive
  // discovery counts (including sweep-elicited ones). For addresses
  // already found in the first 12 hours, "seen again" means renewed
  // genuine client traffic — a sweep answer proves reachability, not
  // continued use, and the paper's 242 "mostly idle" early finds are
  // precisely the ones that never attract another client.
  std::unordered_set<net::Ipv4> passive_later;
  const auto& scanners = campaign.e().scan_detector().scanners();
  campaign.e().monitor().table().for_each(
      [&](const passive::ServiceKey& key,
          const passive::ServiceRecord& record) {
        const bool known_early = passive_12h.contains(key.addr);
        if (known_early
                ? record.last_flow_excluding(scanners) > boundary
                : record.first_seen > boundary) {
          passive_later.insert(key.addr);
        }
      });
  const auto active_later = core::address_times_from_scans(
      campaign.e().prober().scans(),
      [](const active::ScanSummary& s) { return s.index >= 1; });

  core::ExtendedCategorization categorization;
  for (const net::Ipv4 addr : campaign.c().scan_targets()) {
    core::ObservationVector v;
    v.passive_12h = passive_12h.contains(addr);
    v.active_12h = active_12h.contains(addr);
    v.passive_full = passive_later.contains(addr);
    v.active_full = active_later.contains(addr);
    v.transient =
        host::is_transient(campaign.c().class_of(addr));
    categorization.add(v);
  }

  // Paper counts, in the same row order as core::categorize's table.
  const char* paper[] = {"37",    "6",   "1",   "242", "99",  "1,247", "75",
                         "26",    "1",   "4",   "3",   "7",   "13,341",
                         "188",   "125", "655", "73",  "140", "31"};

  analysis::TextTable table({"12h: P A | later: P A | transient",
                             "categorization", "count", "paper"});
  const auto rows = categorization.rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_row({rows[i].pattern, rows[i].label,
                   analysis::fmt_count(rows[i].count),
                   i < std::size(paper) ? paper[i] : ""});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\ntotal addresses categorized: %s (window to %s)\n",
              analysis::fmt_count(categorization.total()).c_str(),
              campaign.c().calendar().month_day(end).c_str());
  return 0;
}

}  // namespace svcdisc

int main() { return svcdisc::run(); }
