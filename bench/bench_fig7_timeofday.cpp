// Figure 7: comparison of network scanning at different times of day and
// frequencies — replaying subsets of the 35 scans (11:00 "day" scans,
// 23:00 "night" scans, alternating, all) against the full-campaign
// ground truth.
#include <cstdio>

#include "analysis/export.h"
#include "analysis/table.h"
#include "bench_common.h"
#include "core/report.h"
#include "core/weighted.h"

namespace svcdisc {

int run() {
  auto campaign = bench::make_campaign(workload::CampusConfig::dtcp1_18d(),
                                       bench::dtcp1_engine_config());
  bench::print_header("Figure 7: scan time-of-day and frequency (DTCP1-18d)",
                      campaign);

  bench::Stopwatch watch;
  campaign.e().run();
  watch.report("DTCP1-18d campaign");

  const auto end = util::kEpoch + campaign.c().config().duration;
  // Ground truth: full passive + all 35 scans (the paper's baseline).
  std::unordered_set<net::Ipv4> truth;
  for (const auto& [addr, t] :
       core::address_discovery_times(campaign.e().monitor().table(), end)) {
    truth.insert(addr);
  }
  const auto all_active = core::address_times_from_scans(
      campaign.e().prober().scans(), nullptr);
  for (const auto& [addr, t] : all_active) truth.insert(addr);
  const double denom = static_cast<double>(truth.size());

  // Scans alternate 11:00 (even index) / 23:00 (odd index).
  struct Subset {
    const char* name;
    std::function<bool(const active::ScanSummary&)> pred;
  };
  const Subset subsets[] = {
      {"every 24h day (11:00)",
       [](const active::ScanSummary& s) { return s.index % 2 == 0; }},
      {"every 24h night (23:00)",
       [](const active::ScanSummary& s) { return s.index % 2 == 1; }},
      {"alternating day/night",
       [](const active::ScanSummary& s) { return s.index % 4 < 2 ? s.index % 4 == 0 : s.index % 4 == 3; }},
      {"every 12h (all 35)", [](const active::ScanSummary&) { return true; }},
  };

  analysis::TextTable table({"schedule", "scans", "servers found",
                             "% of ground truth"});
  std::vector<analysis::StepCurve> curves;
  std::vector<std::unordered_set<net::Ipv4>> found_sets;
  for (const Subset& subset : subsets) {
    const auto times = core::address_times_from_scans(
        campaign.e().prober().scans(), subset.pred);
    int scan_count = 0;
    for (const auto& scan : campaign.e().prober().scans()) {
      scan_count += subset.pred(scan);
    }
    std::unordered_set<net::Ipv4> found;
    for (const auto& [addr, t] : times) found.insert(addr);
    found_sets.push_back(found);
    table.add_row({subset.name, std::to_string(scan_count),
                   analysis::fmt_count(found.size()),
                   analysis::fmt_pct(100.0 * static_cast<double>(found.size()) /
                                     denom)});
    curves.push_back(core::discovery_curve(times));
  }
  std::fputs(table.render().c_str(), stdout);

  // Day-vs-night asymmetry (paper: night finds 232 servers day misses;
  // day finds 325 night misses).
  std::uint64_t day_only = 0, night_only = 0;
  for (const net::Ipv4 addr : found_sets[0]) {
    day_only += !found_sets[1].contains(addr);
  }
  for (const net::Ipv4 addr : found_sets[1]) {
    night_only += !found_sets[0].contains(addr);
  }
  std::printf(
      "\nday-only finds %s servers night misses; night-only finds %s day\n"
      "misses (paper: 325 and 232: diurnal availability favors daytime).\n"
      "halving frequency to 24 h costs %.0f%% of completeness (paper: 8%%).\n",
      analysis::fmt_count(day_only).c_str(),
      analysis::fmt_count(night_only).c_str(),
      100.0 * static_cast<double>(found_sets[3].size() -
                                  std::max(found_sets[0].size(),
                                           found_sets[2].size())) /
          denom);

  analysis::export_figure("fig7_timeofday", "Figure 7: scan time-of-day and frequency",
                       {{"day_24h", &curves[0], denom},
                        {"night_24h", &curves[1], denom},
                        {"alternating", &curves[2], denom},
                        {"every_12h", &curves[3], denom}},
                       util::kEpoch, end, 18 * 4, campaign.c().calendar());
  std::printf("series written to fig7_timeofday.tsv (+ fig7_timeofday.gp)\n");
  return 0;
}

}  // namespace svcdisc

int main() { return svcdisc::run(); }
