// Monte-Carlo race-window distributions (Figs. 5-8 at scale).
//
// The paper reports the port-probing race windows as small-sample means;
// this bench maps the full *distributions* — median and tail quantiles
// of the four victim-down-to-X windows — across controller profile
// (Table III) x defense suite, at 10^4-10^6 seeded trials per cell.
//
// Scale machinery (DESIGN.md §7d): trials stream through
// TrialRunner::reduce() into per-chunk stats::StreamingQuantile
// estimators — memory stays O(chunks), never O(trials) — and every
// worker runs its trials inside a per-worker TrialArena, so a sweep
// reuses one warm event-loop slab per worker instead of reallocating
// per trial. Chunk boundaries and the merge order depend only on the
// trial count, so the quantile table is byte-identical for every
// --jobs value (ctest golden.montecarlo_quick diffs jobs 1 and 4).
//
//   --trials N   trials per cell (default 1000; --quick 50)
//   --jobs N     worker threads (0 = hardware)
//   --obs-out / --trace-out
//                observed re-run of a representative trial; export its
//                metrics JSON / trace JSONL to files
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "bench_util.hpp"
#include "ctrl/profiles.hpp"
#include "obs/observability.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_arena.hpp"
#include "scenario/trial_runner.hpp"
#include "stats/streaming_quantile.hpp"

using namespace tmg;
using namespace tmg::bench;

namespace {

// The four race windows of Figs. 5-8, pulled out of one hijack outcome.
struct Metric {
  const char* label;  // table label
  std::optional<double> (*get)(const scenario::HijackOutcome&);
};

const Metric kMetrics[] = {
    {"Fig5 iface-up",
     [](const scenario::HijackOutcome& o) { return o.down_to_iface_up_ms; }},
    {"Fig6 confirmed",
     [](const scenario::HijackOutcome& o) { return o.down_to_confirmed_ms; }},
    {"Fig7 probe-start",
     [](const scenario::HijackOutcome& o) {
       return o.down_to_final_probe_start_ms;
     }},
    {"Fig8 declared-down",
     [](const scenario::HijackOutcome& o) {
       return o.down_to_declared_down_ms;
     }},
};
constexpr std::size_t kNMetrics = sizeof(kMetrics) / sizeof(kMetrics[0]);

// Streaming distribution of one metric: median + tails, no sample
// vector. Mean/min/max ride along exactly (they are order-independent).
struct Dist {
  std::uint64_t count = 0;
  double sum = 0.0;
  stats::StreamingQuantile p50{0.50};
  stats::StreamingQuantile p90{0.90};
  stats::StreamingQuantile p99{0.99};

  void fold(double x) {
    ++count;
    sum += x;
    p50.add(x);
    p90.add(x);
    p99.add(x);
  }
  void merge(const Dist& other) {
    count += other.count;
    sum += other.sum;
    p50.merge(other.p50);
    p90.merge(other.p90);
    p99.merge(other.p99);
  }
};

// Per-cell accumulator: one Dist per metric plus the success/event
// counters. reduce() makes one per chunk and merges in chunk order.
struct CellAcc {
  std::uint64_t trials = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t events = 0;
  Dist dist[kNMetrics];

  void fold(const scenario::HijackOutcome& out) {
    ++trials;
    if (out.hijack_succeeded) ++succeeded;
    events += out.events_executed;
    for (std::size_t m = 0; m < kNMetrics; ++m) {
      if (const auto v = kMetrics[m].get(out)) dist[m].fold(*v);
    }
  }
  void merge(const CellAcc& other) {
    trials += other.trials;
    succeeded += other.succeeded;
    events += other.events;
    for (std::size_t m = 0; m < kNMetrics; ++m) dist[m].merge(other.dist[m]);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts =
      parse_harness_args(argc, argv, {trials_flag(), obs_flags()});
  banner("Figs. 5-8 @ scale", "Monte-Carlo race-window distributions");

  const std::size_t per_cell = opts.trial_count(1000, 50);
  const std::vector<ctrl::ControllerProfile> profiles = ctrl::all_profiles();
  const scenario::DefenseSuite suites[] = {
      scenario::DefenseSuite::None,
      scenario::DefenseSuite::TopoGuard,
      scenario::DefenseSuite::TopoGuardAndSphinx,
  };
  const std::size_t n_cells =
      profiles.size() * (sizeof(suites) / sizeof(suites[0]));

  scenario::TrialRunner runner{opts.runner_options()};
  // One warm arena per worker slot, shared by every cell of the sweep.
  std::vector<std::unique_ptr<scenario::TrialArena>> arenas;
  arenas.reserve(runner.jobs());
  for (std::size_t w = 0; w < runner.jobs(); ++w) {
    arenas.push_back(std::make_unique<scenario::TrialArena>());
  }

  WallTimer timer;
  std::vector<CellAcc> cells;
  cells.reserve(n_cells);
  std::uint64_t events = 0;
  for (const ctrl::ControllerProfile& profile : profiles) {
    for (const scenario::DefenseSuite suite : suites) {
      CellAcc acc = runner.reduce(
          per_cell, [] { return CellAcc{}; },
          [&](CellAcc& a, std::size_t i) {
            scenario::HijackConfig cfg;
            cfg.suite = suite;
            cfg.profile = profile;
            cfg.seed = scenario::TrialRunner::trial_seed(42, i);
            cfg.check_invariants = false;
            cfg.arena = arenas[scenario::TrialRunner::worker_slot()].get();
            a.fold(scenario::run_hijack(cfg));
          },
          [](CellAcc& total, CellAcc&& part) { total.merge(part); });
      events += acc.events;
      cells.push_back(std::move(acc));
    }
  }
  const double wall_ms = timer.elapsed_ms();

  // Quantile tables: one row per (cell, metric). Every number here is
  // deterministic — identical for any --jobs — so the full stdout
  // (minus the [bench] footer) doubles as a determinism gate.
  Table table({"Controller", "Defense", "Window", "n", "mean", "p50", "p90",
               "p99", "max"});
  std::size_t cell_idx = 0;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    for (std::size_t s = 0; s < sizeof(suites) / sizeof(suites[0]); ++s) {
      const CellAcc& acc = cells[cell_idx];
      for (std::size_t m = 0; m < kNMetrics; ++m) {
        const Dist& d = acc.dist[m];
        if (d.count == 0) {
          table.add_row({profiles[p].name, scenario::to_string(suites[s]),
                         kMetrics[m].label, "0", "-", "-", "-", "-", "-"});
          continue;
        }
        const double mean = d.sum / static_cast<double>(d.count);
        table.add_row({profiles[p].name, scenario::to_string(suites[s]),
                       kMetrics[m].label, fmt_u(d.count),
                       fmt("%.2f", mean), fmt("%.2f", d.p50.value()),
                       fmt("%.2f", d.p90.value()),
                       fmt("%.2f", d.p99.value()),
                       fmt("%.2f", d.p50.max())});
      }
      ++cell_idx;
    }
  }
  table.print();

  std::printf(
      "\nEach cell is %zu seeded hijack trials streamed through P2\n"
      "quantile estimators (exact below 512 samples/chunk) inside\n"
      "per-worker arenas; the table is byte-identical at any --jobs.\n",
      per_cell);

  BenchResult result;
  result.bench = "montecarlo";
  result.trials = per_cell * n_cells;
  result.base_seed = 42;
  result.jobs = runner.jobs();
  result.wall_ms = wall_ms;
  result.events = events;
  if (opts.observed()) {
    // Observed re-run of one representative trial (first profile,
    // undefended, seed 42), kept out of the timed sweep above;
    // --obs-out and --trace-out export the snapshot / trace for
    // tools/train_profile.
    obs::Observability obs;
    scenario::HijackConfig cfg;
    cfg.suite = scenario::DefenseSuite::None;
    cfg.profile = profiles.front();
    cfg.seed = 42;
    cfg.check_invariants = false;
    cfg.obs = &obs;
    (void)scenario::run_hijack(cfg);
    if (!write_obs_artifacts(opts, obs)) return 1;
  }
  report_bench(result);
  return 0;
}
