// Table I — Liveness Probe Options.
//
// Reproduces the paper's probe comparison: stealth ranking, requirements
// and per-scan timing (mean ± stddev over 1000 scans, RTT excluded — the
// nmap engine overhead), plus the in-sim protocol-exchange time that our
// simulator measures end-to-end.
#include <cstdio>

#include "bench_harness.hpp"
#include "bench_util.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_runner.hpp"

using namespace tmg;
using namespace tmg::bench;
using attack::ProbeType;

int main(int argc, char** argv) {
  const HarnessOptions opts = parse_harness_args(argc, argv, {trials_flag()});
  banner("Table I", "Liveness Probe Options");
  std::printf(
      "Paper reference (nmap on the authors' testbed):\n"
      "  ICMP Ping  Low stealth        0.91 ± 0.04 ms\n"
      "  TCP SYN    Medium, port known 492.3 ± 1.4 ms\n"
      "  ARP ping   High, same subnet  133.5 ± 1.6 ms\n"
      "  Idle Scan  Very High, zombie  1.8 ± 0.1 ms\n");

  const ProbeType types[] = {ProbeType::IcmpPing, ProbeType::TcpSyn,
                             ProbeType::ArpPing, ProbeType::TcpIdleScan};
  constexpr std::size_t kTypes = 4;

  const std::size_t scans = opts.trial_count(1000, 100);  // probes per type

  scenario::TrialRunner runner{opts.runner_options()};
  WallTimer timer;
  const auto rows = runner.map(kTypes, [&](std::size_t i) {
    return scenario::measure_probe_timing(types[i], scans, 42);
  });
  const double wall_ms = timer.elapsed_ms();

  std::uint64_t events = 0;
  Table table({"Type", "Stealth", "Requirements", "Tool timing (ms)",
               "In-sim exchange (ms)", "Detected alive"});
  for (const auto& row : rows) {
    table.add_row({attack::to_string(row.type),
                   attack::to_string(row.stealth), row.requirements,
                   stats::format_mean_pm(row.tool_overhead_ms, ""),
                   stats::format_mean_pm(row.end_to_end_ms, "", 3),
                   fmt_u(row.alive_detected) + "/" + fmt_u(scans)});
    events += row.events_executed;
  }
  table.print();

  std::printf(
      "\nNotes: the 'Tool timing' column models the nmap engine cost the\n"
      "paper measured (calibrated, see DESIGN.md §2); the in-sim exchange\n"
      "column is the actual protocol round-trip our event simulation\n"
      "executes (ARP/ICMP/SYN one RTT; the idle scan pays two zombie\n"
      "round-trips plus a settle window for the side channel).\n");

  BenchResult result;
  result.bench = "table1_probes";
  result.trials = kTypes * scans;
  result.base_seed = 42;
  result.jobs = runner.jobs();
  result.wall_ms = wall_ms;
  result.events = events;
  report_bench(result);
  return 0;
}
