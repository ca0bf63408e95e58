// Benchmark harness: the harness flag sets, wall-clock timing, and the
// closing bench report.
//
// A bench parses harness_flags() (--jobs N, --quick) joined with the
// sets it also honours (cli/flags.hpp): trials_flag() and obs_flags()
// (--obs-out PATH, --trace-out PATH; either one triggers the observed
// re-run). README.md's flag table says which bench takes which.
//
// Wall-clock time is host time (std::chrono), which is fine here: it
// never feeds simulation results, only the `[bench]` report line. src/
// stays under the determinism lint; bench/ is outside its scope by
// design.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

#include "cli/flags.hpp"
#include "scenario/trial_runner.hpp"

namespace tmg::obs {
class Observability;
}  // namespace tmg::obs

namespace tmg::bench {

struct HarnessOptions {
  std::size_t trials = 0;  // 0 = use the bench's default
  std::size_t jobs = 0;    // 0 = hardware concurrency
  bool quick = false;
  std::string obs_out_path;    // --obs-out: metrics snapshot file
  std::string trace_out_path;  // --trace-out: trace JSONL export file

  /// TrialRunner options for this bench invocation.
  [[nodiscard]] scenario::TrialRunnerOptions runner_options() const {
    return {.jobs = jobs};
  }

  /// Trial count to actually run: --trials if given, else the quick or
  /// full default.
  [[nodiscard]] std::size_t trial_count(std::size_t full_default,
                                        std::size_t quick_default) const {
    if (trials != 0) return trials;
    return quick ? quick_default : full_default;
  }

  /// True when an export was requested: the bench re-runs a
  /// representative trial with the observability layer attached.
  [[nodiscard]] bool observed() const {
    return !obs_out_path.empty() || !trace_out_path.empty();
  }
};

/// A harness bench's table: --jobs and --quick, which every harness
/// bench honours, joined with the `extra` sets it also honours.
cli::Table harness_flags(std::initializer_list<cli::Table> extra = {});
cli::Table trials_flag();
cli::Table obs_flags();
/// bench_attack_matrix's own: --stacked, --pipeline-stats, --check and
/// --profile NAME.
cli::Table attack_matrix_flags();

/// The harness flags of a parsed command line; absent ones keep their
/// defaults.
HarnessOptions harness_options(const cli::Args& args);

/// harness_options(cli::parse_or_die(harness_flags(extra), ...)).
HarnessOptions parse_harness_args(int argc, char** argv,
                                  std::initializer_list<cli::Table> extra = {});

/// Write the --obs-out / --trace-out artifacts from an observed run:
/// the final-time metrics snapshot and the trace JSONL export. No-op
/// for paths not requested; returns false if any write failed (after
/// printing a diagnostic).
bool write_obs_artifacts(const HarnessOptions& opts, obs::Observability& obs);

/// Monotonic stopwatch, started at construction.
class WallTimer {
 public:
  WallTimer();
  [[nodiscard]] double elapsed_ms() const;

 private:
  std::int64_t start_ns_;
};

struct BenchResult {
  std::string bench;           // short workload id, e.g. "attack_matrix"
  std::size_t trials = 0;      // trials executed
  std::uint64_t base_seed = 0; // seed the per-trial seeds derive from
  std::size_t jobs = 0;        // worker threads used (TrialRunner::jobs)
  double wall_ms = 0.0;        // end-to-end wall-clock for the workload
  std::uint64_t events = 0;    // simulator events executed, all trials
};

/// Print the closing report: a `[work]` line with the deterministic
/// record {trials, base_seed, events}, identical at every --jobs value
/// (the goldens pin it), then a `[bench]` line with the host-time part
/// {jobs, wall time, events/s}. `[bench]` marks exactly the host-time
/// lines, which tools/check_pipeline_equivalence.py strips.
void report_bench(const BenchResult& result);

}  // namespace tmg::bench
