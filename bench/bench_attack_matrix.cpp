// Sec. V-A — The attack/defense matrix.
//
// Every link attack against every defense suite: whether the fabricated
// link registered, whether MITM traffic crossed it, and what alerted.
// The paper's headline row is out-of-band port amnesia bypassing
// TopoGuard and SPHINX simultaneously while TOPOGUARD+ stops it.
//
// With --trials N each of the 20 cells is run N times (seeds derived
// from trial_seed(42, t)) and the table reports how often each outcome
// held. All trials fan out across --jobs worker threads; results are
// merged in trial-index order, so the table is identical for every
// --jobs value.
//
// Extra flags (attack_matrix_flags()) on top of the harness sets:
//   --stacked          add a sixth defense column running TopoGuard,
//                      SPHINX, CMM and LLI simultaneously as stacked
//                      pipeline listeners (default table is unchanged)
//   --pipeline-stats   print per-listener dispatch/stop counters per
//                      defense suite after the matrix
//   --profile NAME     run every cell under that controller pipeline
//                      profile (floodlight/pox/opendaylight/onos);
//                      unknown names exit 2. Announced on stderr
//                      only, so golden gates stay byte-clean.
//   --check            attach the runtime invariant checker to every
//                      trial, print the sweep count and fail on any
//                      violation
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_harness.hpp"
#include "bench_util.hpp"
#include "ctrl/profiles.hpp"
#include "obs/observability.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_arena.hpp"
#include "scenario/trial_runner.hpp"

using namespace tmg;
using namespace tmg::bench;
using scenario::DefenseSuite;
using scenario::LinkAttackKind;

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_die(
      harness_flags({trials_flag(), obs_flags(), attack_matrix_flags()}), argc,
      argv);
  const HarnessOptions opts = harness_options(args);
  const bool stacked = args.has("--stacked");
  const bool show_pipeline = args.has("--pipeline-stats");
  const bool check_invariants = args.has("--check");
  const std::optional<ctrl::ControllerProfile> profile =
      ctrl::profile_by_name(args.value("--profile"));
  banner("Sec. V-A", "Link fabrication attack/defense matrix");

  const LinkAttackKind kinds[] = {
      LinkAttackKind::ClassicRelay,
      LinkAttackKind::OobAmnesia,
      LinkAttackKind::OobAmnesiaNaive,
      LinkAttackKind::InBandAmnesia,
  };
  std::vector<DefenseSuite> suites = {
      DefenseSuite::None,
      DefenseSuite::TopoGuard,
      DefenseSuite::Sphinx,
      DefenseSuite::TopoGuardAndSphinx,
      DefenseSuite::TopoGuardPlus,
  };

  if (stacked) suites.push_back(DefenseSuite::Stacked);
  const std::size_t n_suites = suites.size();
  const std::size_t kCells = 4 * n_suites;

  // Default: 1 trial per cell with the canonical seed 42 (the classic
  // single-run table); --trials 10 = 200-experiment workload.
  const std::size_t trials_per_cell = opts.trial_count(1, 1);
  const std::size_t total = trials_per_cell * kCells;

  scenario::TrialRunner runner{opts.runner_options()};
  // One warm arena per worker: each worker's trials reuse one event-loop
  // slab instead of reallocating per trial (observationally neutral —
  // tests/trial_runner_test.cpp pins arena == fresh byte-for-byte).
  std::vector<std::unique_ptr<scenario::TrialArena>> arenas;
  for (std::size_t w = 0; w < runner.jobs(); ++w) {
    arenas.push_back(std::make_unique<scenario::TrialArena>());
  }
  WallTimer timer;
  const auto outcomes =
      runner.map(total, [&](std::size_t i) -> scenario::LinkAttackOutcome {
        const std::size_t cell = i % kCells;
        const std::size_t trial = i / kCells;
        scenario::LinkAttackConfig cfg;
        cfg.kind = kinds[cell / n_suites];
        cfg.suite = suites[cell % n_suites];
        cfg.collect_pipeline_stats = show_pipeline;
        // Trial 0 keeps the canonical seed so the default table matches
        // the paper walk-through; later trials draw derived seeds.
        cfg.seed = trial == 0 ? 42 : scenario::TrialRunner::trial_seed(42, trial);
        // Benches measure the simulator, not the audit battery: the
        // invariant checker is a read-only post-event hook, so skipping
        // it changes wall clock only (tests keep it on; the per-profile
        // runs of ctest pipeline.equivalence turn it back on with
        // --check).
        cfg.check_invariants = check_invariants;
        cfg.profile = profile;
        cfg.arena = arenas[scenario::TrialRunner::worker_slot()].get();
        return scenario::run_link_attack(cfg);
      });
  const double wall_ms = timer.elapsed_ms();

  std::uint64_t events = 0;
  for (const auto& out : outcomes) events += out.events_executed;

  const auto frac = [&](std::size_t count) {
    if (trials_per_cell == 1) return std::string(count != 0 ? "yes" : "no");
    return std::to_string(count) + "/" + std::to_string(trials_per_cell);
  };

  Table table({"Attack", "Defense", "Link made", "Held at end", "MITM",
               "Flaps", "TG", "SPHINX", "CMM", "LLI", "Detected"});
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    std::size_t made = 0, held = 0, mitm = 0, detected = 0;
    std::uint64_t flaps = 0, tg = 0, sphinx = 0, cmm = 0, lli = 0;
    for (std::size_t t = 0; t < trials_per_cell; ++t) {
      const auto& out = outcomes[t * kCells + cell];
      made += out.link_registered ? 1 : 0;
      held += out.link_present_at_end ? 1 : 0;
      mitm += out.mitm_traffic ? 1 : 0;
      detected += out.detected() ? 1 : 0;
      flaps += out.flaps;
      tg += out.alerts_topoguard;
      sphinx += out.alerts_sphinx;
      cmm += out.alerts_cmm;
      lli += out.alerts_lli;
    }
    table.add_row({scenario::to_string(kinds[cell / n_suites]),
                   scenario::to_string(suites[cell % n_suites]), frac(made),
                   frac(held), frac(mitm), fmt_u(flaps), fmt_u(tg),
                   fmt_u(sphinx), fmt_u(cmm), fmt_u(lli), frac(detected)});
  }
  table.print();

  std::printf(
      "\nExpected shape (paper Sec. V-A, VII-A):\n"
      "  - classic relay: works on bare/SPHINX controllers, TopoGuard\n"
      "    catches it (LLDP from a HOST port);\n"
      "  - oob port amnesia: bypasses TopoGuard, SPHINX, and both\n"
      "    together, undetected, with working MITM; only TOPOGUARD+'s\n"
      "    LLI stops it;\n"
      "  - naive oob (flap during propagation): CMM also fires;\n"
      "  - in-band: bypasses TopoGuard/SPHINX at the cost of repeated\n"
      "    context-switch flaps; CMM detects and blocks it.\n");

  if (show_pipeline) {
    // Per-listener dispatch counters aggregated over attacks and trials
    // for each defense suite. Deliberately excludes wall time: counters
    // are deterministic, host clocks are not.
    std::printf("\nPipeline listener stats (summed over attacks/trials):\n");
    Table pstats({"Defense", "Listener", "Prio", "Dispatches", "Stops"});
    for (std::size_t s = 0; s < n_suites; ++s) {
      // Keyed by (priority, name): the chain order within each suite.
      std::map<std::pair<int, std::string>,
               std::pair<std::uint64_t, std::uint64_t>>
          agg;
      for (std::size_t cell = 0; cell < kCells; ++cell) {
        if (cell % n_suites != s) continue;
        for (std::size_t t = 0; t < trials_per_cell; ++t) {
          for (const auto& ls : outcomes[t * kCells + cell].pipeline_stats) {
            auto& slot = agg[{ls.priority, ls.name}];
            slot.first += ls.dispatches;
            slot.second += ls.stops;
          }
        }
      }
      for (const auto& [key, counts] : agg) {
        pstats.add_row({scenario::to_string(suites[s]), key.second,
                        fmt_u(static_cast<std::uint64_t>(key.first)),
                        fmt_u(counts.first), fmt_u(counts.second)});
      }
    }
    pstats.print();
  }

  if (profile) {
    // On stderr, so the profile announcement never perturbs the
    // byte-identity checks on stdout.
    std::fprintf(stderr, "profile=%s\n", profile->name.c_str());
  }
  std::uint64_t inv_sweeps = 0, inv_violations = 0;
  if (check_invariants) {
    for (const auto& out : outcomes) {
      inv_sweeps += out.invariant_sweeps;
      inv_violations += out.invariant_violations;
    }
    std::printf("[check] invariants: sweeps=%llu violations=%llu\n",
                static_cast<unsigned long long>(inv_sweeps),
                static_cast<unsigned long long>(inv_violations));
  }

  BenchResult result;
  result.bench = "attack_matrix";
  result.trials = total;
  result.base_seed = 42;
  result.jobs = runner.jobs();
  result.wall_ms = wall_ms;
  result.events = events;
  if (opts.observed()) {
    // Observed re-run of the headline cell (oob amnesia vs TOPOGUARD+),
    // kept out of the timed workload above.
    obs::Observability obs;
    scenario::LinkAttackConfig cfg;
    cfg.kind = LinkAttackKind::OobAmnesia;
    cfg.suite = DefenseSuite::TopoGuardPlus;
    cfg.seed = 42;
    cfg.obs = &obs;
    (void)scenario::run_link_attack(cfg);
    if (!write_obs_artifacts(opts, obs)) return 1;
  }
  report_bench(result);
  return check_invariants && inv_violations != 0 ? 1 : 0;
}
