// Table 7: UDP service discovery (DUDP): 24 hours of passive monitoring
// plus one generic UDP scan of ports 80/53/137/27015.
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/table.h"
#include "bench_common.h"
#include "core/report.h"

namespace svcdisc {

int run() {
  core::EngineConfig engine_cfg;
  engine_cfg.scan_count = 1;
  auto campaign =
      bench::make_campaign(workload::CampusConfig::dudp(), engine_cfg);
  bench::print_header("Table 7: UDP services discovered (DUDP)", campaign);

  // The scan's outcomes are readable only from its completion hook.
  std::optional<active::ScanRecord> first_scan;
  campaign.e().scheduler()->on_scan_complete =
      [&](const active::ScanRecord& record) {
        if (!first_scan) first_scan = record;
      };
  bench::Stopwatch watch;
  campaign.e().run();
  // The UDP scan of 4 ports x ~15.6k addresses outlasts the 24-h passive
  // window slightly at the configured rate; let it finish.
  while (campaign.e().prober().scan_in_progress()) {
    campaign.c().simulator().step();
  }
  watch.report("DUDP campaign");

  if (!first_scan) {
    std::fprintf(stderr, "no scan completed\n");
    return 1;
  }
  const active::ScanRecord& scan = *first_scan;

  const auto& ports = campaign.c().udp_ports();
  std::unordered_map<net::Port, std::uint64_t> open, possible, closed,
      passive_counts;

  // Host-level: addresses that answered nothing at all.
  std::unordered_set<net::Ipv4> responded;
  for (const auto& outcome : scan.outcomes) {
    switch (outcome.status) {
      case active::ProbeStatus::kOpenUdp:
        ++open[outcome.key.port];
        responded.insert(outcome.key.addr);
        break;
      case active::ProbeStatus::kClosed:
        ++closed[outcome.key.port];
        responded.insert(outcome.key.addr);
        break;
      case active::ProbeStatus::kMaybeOpen:
        ++possible[outcome.key.port];
        break;
      default:
        break;
    }
  }
  std::uint64_t silent_hosts = 0;
  {
    std::unordered_set<net::Ipv4> all_addrs;
    for (const auto& outcome : scan.outcomes) {
      all_addrs.insert(outcome.key.addr);
    }
    for (const net::Ipv4 addr : all_addrs) {
      silent_hosts += !responded.contains(addr);
    }
  }

  const auto cutoff = util::kEpoch + util::days(1);
  campaign.e().monitor().table().for_each(
      [&](const passive::ServiceKey& key, const passive::ServiceRecord& r) {
        if (key.proto == net::Proto::kUdp && r.first_seen <= cutoff) {
          ++passive_counts[key.port];
        }
      });

  const auto total = [](std::unordered_map<net::Port, std::uint64_t>& m) {
    std::uint64_t t = 0;
    for (const auto& [port, count] : m) t += count;
    return t;
  };

  analysis::TextTable table({"service", "All", "Web 80", "DNS 53",
                             "NetBIOS 137", "Gaming 27015"});
  const auto row = [&](const char* name,
                       std::unordered_map<net::Port, std::uint64_t>& m) {
    std::vector<std::string> cells{name, analysis::fmt_count(total(m))};
    for (const net::Port p : ports) {
      cells.push_back(analysis::fmt_count(m[p]));
    }
    table.add_row(std::move(cells));
  };
  row("Passive", passive_counts);
  table.add_rule();
  row("Active: definitely open (UDP response)", open);
  row("Active: possibly open", possible);
  table.add_row({"Active: no response from any probed port",
                 analysis::fmt_count(silent_hosts), "-", "-", "-", "-"});
  row("Active: definitely closed (ICMP response)", closed);
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\npaper: passive 37 (0/32/4/1); definitely open 116 (0/52/64/0);\n"
      "possibly open 4,862 (137/376/4,238/111); silent hosts 6,359;\n"
      "definitely closed 9,826 (9,687/9,449/5,572/9,713).\n"
      "shape checks: NetBIOS dominates 'possibly open' (silent Windows\n"
      "hosts); passive UDP finds only the handful of genuinely used\n"
      "services.\n");
  return 0;
}

}  // namespace svcdisc

int main() { return svcdisc::run(); }
