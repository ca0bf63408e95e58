// Sec. V-B2 — Scan detection thresholds.
//
// Sweeps scan rates for TCP SYN and ARP liveness probes against the
// Snort-surrogate IDS. Paper findings: the Proofpoint ET rules detect
// SYN scans above 2 scans/second; ARP scans remain undetected at every
// rate tried (the attack uses 1 probe per 50 ms = 20/s).
#include <cstdio>

#include "bench_harness.hpp"
#include "bench_util.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_runner.hpp"

using namespace tmg;
using namespace tmg::bench;
using namespace tmg::sim::literals;
using attack::ProbeType;

int main(int argc, char** argv) {
  const HarnessOptions opts = parse_harness_args(argc, argv);
  banner("Sec. V-B2", "IDS detection vs. scan rate (30 s per cell)");

  const ProbeType types[] = {ProbeType::TcpSyn, ProbeType::ArpPing,
                             ProbeType::IcmpPing};
  const double rates[] = {0.5, 1.0, 1.9, 2.5, 5.0, 10.0, 20.0};
  constexpr std::size_t kRates = 7;
  constexpr std::size_t kCells = 3 * kRates;

  const auto window =
      opts.quick ? 5_s : 30_s;  // simulated scan window per cell

  scenario::TrialRunner runner{opts.runner_options()};
  WallTimer timer;
  const auto results = runner.map(kCells, [&](std::size_t i) {
    return scenario::run_scan_detection(types[i / kRates], rates[i % kRates],
                                        window, 42);
  });
  const double wall_ms = timer.elapsed_ms();

  std::uint64_t events = 0;
  Table table({"Probe", "Rate (/s)", "Probes sent", "IDS alerts",
               "Detected"});
  for (const auto& r : results) {
    table.add_row({attack::to_string(r.type), fmt("%.1f", r.rate_per_s),
                   fmt_u(r.probes_sent), fmt_u(r.ids_alerts),
                   yes_no(r.detected())});
    events += r.events_executed;
  }
  table.print();

  std::printf(
      "\nExpected shape (paper): SYN detected above 2/s; ARP undetected at\n"
      "all rates (neither Snort nor Bro ships ARP-scan rules); ICMP floods\n"
      "detected, making ping probes a poor stealth choice (Table I).\n");

  BenchResult result;
  result.bench = "scan_detection";
  result.trials = kCells;
  result.base_seed = 42;
  result.jobs = runner.jobs();
  result.wall_ms = wall_ms;
  result.events = events;
  report_bench(result);
  return 0;
}
