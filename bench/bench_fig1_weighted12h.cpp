// Figure 1: weighted and unweighted cumulative server discovery over the
// first 12 hours, for passive monitoring and the first active scan.
// Weights (flows, unique clients per server) are accumulated over the
// whole campaign, as in the paper (§4.1.2).
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
  bench::print_header(
      "Figure 1: weighted vs unweighted 12-h discovery (DTCP1-12h)",
      campaign);

  bench::Stopwatch watch;
  campaign.e().run();
  watch.report("DTCP1-18d campaign");

  const auto cutoff = util::kEpoch + util::hours(12);
  const auto weights = core::address_weights(campaign.e().monitor().table());

  const auto passive_times = core::address_discovery_times(
      campaign.e().monitor().table(), cutoff);
  const auto active_times = core::address_times_from_scans(
      campaign.e().prober().scans(),
      [](const active::ScanSummary& s) { return s.index == 0; });

  const auto passive = core::weighted_curves(passive_times, weights);
  const auto active = core::weighted_curves(active_times, weights);

  // Percent of the 12-h union, as the paper plots.
  std::unordered_set<net::Ipv4> union_addrs;
  for (const auto& [addr, t] : passive_times) union_addrs.insert(addr);
  for (const auto& [addr, t] : active_times) union_addrs.insert(addr);
  double union_flows = 0, union_clients = 0;
  for (const net::Ipv4 addr : union_addrs) {
    const auto f = weights.flows.find(addr);
    if (f != weights.flows.end()) union_flows += f->second;
    const auto c = weights.clients.find(addr);
    if (c != weights.clients.end()) union_clients += c->second;
  }

  analysis::TextTable table({"time", "P unw", "P flow", "P client", "A unw",
                             "A flow", "A client"});
  const auto& cal = campaign.c().calendar();
  for (int m = 0; m <= 12 * 60; m += 45) {
    const auto t = util::kEpoch + util::minutes(m);
    const auto pct = [](double v, double total) {
      return analysis::fmt_double(total > 0 ? 100.0 * v / total : 0.0, 1);
    };
    table.add_row({cal.time_of_day(t),
                   pct(passive.unweighted.at(t),
                       static_cast<double>(union_addrs.size())),
                   pct(passive.flow_weighted.at(t), union_flows),
                   pct(passive.client_weighted.at(t), union_clients),
                   pct(active.unweighted.at(t),
                       static_cast<double>(union_addrs.size())),
                   pct(active.flow_weighted.at(t), union_flows),
                   pct(active.client_weighted.at(t), union_clients)});
  }
  std::fputs(table.render().c_str(), stdout);

  const auto to_min = [](util::TimePoint t) {
    return static_cast<double>(t.usec) / 6e7;
  };
  std::printf(
      "\npassive reaches 99%% of flow-weighted servers at t+%.0f min\n"
      "(paper: 5 min), 99%% of client-weighted at t+%.0f min (paper: 14\n"
      "min); active needs over an hour for either (rate-limited walk).\n",
      to_min(passive.flow_weighted.time_to_reach(0.99 * union_flows)),
      to_min(passive.client_weighted.time_to_reach(0.99 * union_clients)));

  analysis::export_figure(
      "fig1_weighted12h", "Figure 1: weighted vs unweighted 12-h discovery",
      {{"passive_unweighted", &passive.unweighted,
        static_cast<double>(union_addrs.size())},
       {"passive_flow", &passive.flow_weighted, union_flows},
       {"passive_client", &passive.client_weighted, union_clients},
       {"active_unweighted", &active.unweighted,
        static_cast<double>(union_addrs.size())},
       {"active_flow", &active.flow_weighted, union_flows},
       {"active_client", &active.client_weighted, union_clients}},
      util::kEpoch, cutoff, 145, cal);
  std::printf("series written to fig1_weighted12h.tsv (+ fig1_weighted12h.gp)\n");
  return 0;
}

}  // namespace svcdisc

int main() { return svcdisc::run(); }
