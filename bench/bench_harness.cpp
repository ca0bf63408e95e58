#include "bench_harness.hpp"

#include <chrono>
#include <cstdio>

#include "ctrl/profiles.hpp"
#include "obs/observability.hpp"
#include "sim/thread_pool.hpp"

namespace tmg::bench {

cli::Table harness_flags(std::initializer_list<cli::Table> extra) {
  return cli::join({{"--jobs", cli::Kind::kCount},
                    {"--quick"},
                    {"--json", cli::Kind::kValue}},
                   extra);
}

cli::Table trials_flag() { return {{"--trials", cli::Kind::kCount}}; }

cli::Table obs_flags() {
  return {{"--obs"},
          {"--obs-out", cli::Kind::kValue},
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
  opts.json_path = args.value("--json");
  opts.obs_out_path = args.value("--obs-out");
  opts.trace_out_path = args.value("--trace-out");
  // The export flags only make sense with the observability layer
  // attached, so they imply --obs.
  opts.obs = args.has("--obs") || !opts.obs_out_path.empty() ||
             !opts.trace_out_path.empty();
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

bool report_bench(const HarnessOptions& opts, BenchResult result) {
  if (result.jobs == 0) result.jobs = sim::ThreadPool::hardware_jobs();
  if (result.wall_ms > 0.0) {
    result.events_per_sec =
        static_cast<double>(result.events) / (result.wall_ms / 1e3);
  }
  std::printf(
      "\n[bench] %s: trials=%zu base_seed=%llu jobs=%zu wall=%.1f ms "
      "events=%llu (%.3g events/s)\n",
      result.bench.c_str(), result.trials,
      static_cast<unsigned long long>(result.base_seed), result.jobs,
      result.wall_ms, static_cast<unsigned long long>(result.events),
      result.events_per_sec);
  if (opts.json_path.empty()) return true;

  std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", opts.json_path.c_str());
    return false;
  }
  // Contract: {trials, base_seed, jobs} are always present — they are
  // the reproduction key for any bench artifact.
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"%s\",\n"
               "  \"trials\": %zu,\n"
               "  \"base_seed\": %llu,\n"
               "  \"jobs\": %zu,\n"
               "  \"wall_ms\": %.3f,\n"
               "  \"events\": %llu,\n"
               "  \"events_per_sec\": %.3f",
               result.bench.c_str(), result.trials,
               static_cast<unsigned long long>(result.base_seed), result.jobs,
               result.wall_ms,
               static_cast<unsigned long long>(result.events),
               result.events_per_sec);
  if (!result.obs_metrics_json.empty()) {
    std::string snap = result.obs_metrics_json;
    while (!snap.empty() && snap.back() == '\n') snap.pop_back();
    std::fprintf(f, ",\n  \"obs\": %s", snap.c_str());
  }
  if (!result.extra_key.empty() && !result.extra_json.empty()) {
    std::fprintf(f, ",\n  \"%s\": %s", result.extra_key.c_str(),
                 result.extra_json.c_str());
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace tmg::bench
