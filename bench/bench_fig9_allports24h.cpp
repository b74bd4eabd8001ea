// Figure 9: weighted and unweighted cumulative server discovery over the
// first 24 hours of DTCPall (a /24 of lab machines, services on any
// port, one ~24-hour full-port scan).
#include <cstdio>

#include "analysis/export.h"
#include "analysis/table.h"
#include "bench_common.h"
#include "core/report.h"
#include "core/weighted.h"

namespace svcdisc {

int run() {
  core::EngineConfig engine_cfg;
  engine_cfg.scan_count = 1;
  engine_cfg.first_scan_offset = util::minutes(30);
  auto campaign =
      bench::make_campaign(workload::CampusConfig::dtcp_all(), engine_cfg);
  bench::print_header(
      "Figure 9: all-port weighted discovery over 24 h (DTCPall)", campaign);

  bench::Stopwatch watch;
  campaign.e().run();
  watch.report("DTCPall campaign");

  const auto cutoff = util::kEpoch + util::days(1);
  const auto weights = core::address_weights(campaign.e().monitor().table());
  const auto passive_times = core::address_discovery_times(
      campaign.e().monitor().table(), cutoff);
  const auto active_times = core::address_times_from_scans(
      campaign.e().prober().scans(),
      [](const active::ScanSummary& s) { return s.index == 0; });

  const auto passive = core::weighted_curves(passive_times, weights);
  const auto active = core::weighted_curves(active_times, weights);

  std::unordered_set<net::Ipv4> union_addrs;
  for (const auto& [addr, t] : passive_times) union_addrs.insert(addr);
  for (const auto& [addr, t] : active_times) union_addrs.insert(addr);
  double union_flows = 0, union_clients = 0;
  for (const net::Ipv4 addr : union_addrs) {
    if (const auto it = weights.flows.find(addr); it != weights.flows.end()) {
      union_flows += it->second;
    }
    if (const auto it = weights.clients.find(addr);
        it != weights.clients.end()) {
      union_clients += it->second;
    }
  }

  analysis::TextTable table({"time", "P unw", "P flow", "P client", "A unw",
                             "A flow", "A client"});
  const auto& cal = campaign.c().calendar();
  for (int h = 0; h <= 24; h += 2) {
    const auto t = util::kEpoch + util::hours(h);
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

  std::printf(
      "\npaper shape checks: one dominant server carries ~97%% of the\n"
      "subnet's connections; weighted active discovery jumps when the\n"
      "slow full-port walk reaches it (~12:30), while passive has it\n"
      "almost immediately; passive jumps again at the early external\n"
      "sweeps.\n");

  analysis::export_figure(
      "fig9_allports24h", "Figure 9: all-port weighted discovery over 24 h",
      {{"passive_unweighted", &passive.unweighted,
        static_cast<double>(union_addrs.size())},
       {"passive_flow", &passive.flow_weighted, union_flows},
       {"passive_client", &passive.client_weighted, union_clients},
       {"active_unweighted", &active.unweighted,
        static_cast<double>(union_addrs.size())},
       {"active_flow", &active.flow_weighted, union_flows},
       {"active_client", &active.client_weighted, union_clients}},
      util::kEpoch, cutoff, 97, cal);
  std::printf("series written to fig9_allports24h.tsv (+ fig9_allports24h.gp)\n");
  return 0;
}

}  // namespace svcdisc

int main() { return svcdisc::run(); }
