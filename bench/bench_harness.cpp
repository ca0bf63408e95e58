#include "bench_harness.hpp"

#include <chrono>
#include <cstdio>

#include "ctrl/profiles.hpp"
#include "obs/observability.hpp"

namespace tmg::bench {

cli::Table harness_flags(std::initializer_list<cli::Table> extra) {
  return cli::join({{"--jobs", cli::Kind::kCount}, {"--quick"}}, extra);
}

cli::Table trials_flag() { return {{"--trials", cli::Kind::kCount}}; }

cli::Table obs_flags() {
  return {{"--obs-out", cli::Kind::kValue},
          {"--trace-out", cli::Kind::kValue}};
}

cli::Table attack_matrix_flags() {
  return {{"--stacked"},
          {"--pipeline-stats"},
          {"--check"},
          {"--profile", cli::Kind::kChoice, ctrl::profile_cli_names()}};
}

HarnessOptions harness_options(const cli::Args& args) {
  HarnessOptions opts;
  opts.trials = args.count("--trials");
  opts.jobs = args.count("--jobs");
  opts.quick = args.has("--quick");
  opts.obs_out_path = args.value("--obs-out");
  opts.trace_out_path = args.value("--trace-out");
  return opts;
}

HarnessOptions parse_harness_args(int argc, char** argv,
                                  std::initializer_list<cli::Table> extra) {
  return harness_options(cli::parse_or_die(harness_flags(extra), argc, argv));
}

bool write_obs_artifacts(const HarnessOptions& opts, obs::Observability& obs) {
  bool ok = true;
  if (!opts.obs_out_path.empty()) {
    if (!obs::write_text_file(opts.obs_out_path,
                              obs.metrics_json(obs.final_time()))) {
      std::fprintf(stderr, "[bench] cannot write %s\n",
                   opts.obs_out_path.c_str());
      ok = false;
    }
  }
  if (!opts.trace_out_path.empty()) {
    if (!obs::write_text_file(opts.trace_out_path, obs.trace().to_jsonl())) {
      std::fprintf(stderr, "[bench] cannot write %s\n",
                   opts.trace_out_path.c_str());
      ok = false;
    }
  }
  return ok;
}

WallTimer::WallTimer()
    : start_ns_{std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()} {}

double WallTimer::elapsed_ms() const {
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<double>(now_ns - start_ns_) / 1e6;
}

void report_bench(const BenchResult& result) {
  const double events_per_sec =
      result.wall_ms > 0.0
          ? static_cast<double>(result.events) / (result.wall_ms / 1e3)
          : 0.0;
  std::printf("\n[work] %s: trials=%zu base_seed=%llu events=%llu\n",
              result.bench.c_str(), result.trials,
              static_cast<unsigned long long>(result.base_seed),
              static_cast<unsigned long long>(result.events));
  std::printf("[bench] %s: jobs=%zu wall=%.1f ms (%.3g events/s)\n",
              result.bench.c_str(), result.jobs, result.wall_ms,
              events_per_sec);
}

}  // namespace tmg::bench
