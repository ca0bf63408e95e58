// trialbench: closed-loop trial workloads over the simulator's
// experiment drivers, with per-layer counts and unit costs.
//
//   trialbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Untraced (--trace 0): set up (arenas, warm-up trials, on
// defense_stack the IDS baseline), then run trials in rounds of
// TrialRunner::reduce until --seconds have passed, setting up again
// kSetupReps - 1 times along the way, and print the end-to-end metrics,
// scaled to a reference host speed (see run_untraced). Traced
// (--trace 1): set up once, run the sample trials untraced at the
// workload's worker count, again serially in a fresh arena (allocation
// counts), and then traced (an obs::Observability per trial), and print
// the per-layer counts and unit costs.
//
// Output is one record per line: `metric NAME UNIT VALUE`, plus
// `NAME VALUE` fields (digest, traced_digest, attempted, failed,
// warmup_failed, trials, ...). trialbench/run.py reads them.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "drills.hpp"
#include "scenario/trial_arena.hpp"
#include "scenario/trial_runner.hpp"
#include "workloads.hpp"

using namespace trialbench;
using tmg::scenario::TrialArena;
using tmg::scenario::TrialRunner;

namespace {

using Clock = std::chrono::steady_clock;
using Arenas = std::vector<std::unique_ptr<TrialArena>>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Peak resident set of this process image, from VmHWM. getrusage's
// ru_maxrss is not used: Linux keeps it across execve, so it would report
// the launching Python process's peak whenever that is higher.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5);
}

void print_metric(const std::string& name, const char* unit, double value) {
  std::printf("metric %s %s %.17g\n", name.c_str(), unit, value);
}

struct Sample {
  TrialResult result;
  double host_ms = 0;
};

// One round: trials [begin, begin + count) through TrialRunner::reduce,
// each worker in its own arena. Samples come back in trial order.
std::vector<Sample> run_round(const TrialRunner& runner, Arenas& arenas,
                              const WorkloadContext& ctx, std::size_t begin,
                              std::size_t count) {
  using Acc = std::vector<Sample>;
  return runner.reduce(
      count, [] { return Acc{}; },
      [&](Acc& acc, std::size_t i) {
        TrialArena* arena = arenas[TrialRunner::worker_slot()].get();
        const auto t0 = Clock::now();
        const TrialResult r = run_trial(ctx, begin + i, arena, nullptr);
        acc.push_back({r, seconds_since(t0) * 1e3});
      },
      [](Acc& total, Acc&& part) {
        total.insert(total.end(), part.begin(), part.end());
      });
}

std::uint64_t digest_of(const std::vector<Sample>& samples) {
  std::vector<std::uint64_t> hashes;
  for (const Sample& x : samples) hashes.push_back(x.result.hash);
  return fold_digest(hashes);
}

std::size_t count_failed(const std::vector<Sample>& samples) {
  return static_cast<std::size_t>(std::count_if(
      samples.begin(), samples.end(),
      [](const Sample& s) { return !s.result.passed; }));
}

// Everything one set-up produces; the latest one runs the trials.
struct Setup {
  std::unique_ptr<TrialRunner> runner;
  Arenas arenas;
  WorkloadContext ctx;
  double seconds = 0;
  double train_ms = 0;
  std::size_t warmup_failed = 0;
};

Setup set_up(const WorkloadSpec& spec, std::uint64_t seed) {
  const auto t0 = Clock::now();
  Setup s;
  s.runner = std::make_unique<TrialRunner>(
      tmg::scenario::TrialRunnerOptions{.jobs = spec.jobs});
  for (std::size_t w = 0; w < s.runner->jobs(); ++w) {
    s.arenas.push_back(std::make_unique<TrialArena>());
  }
  s.ctx = make_context(spec, seed);
  if (spec.id == WorkloadId::DefenseStack) {
    const auto t_train = Clock::now();
    s.ctx.baseline = train_stacked_baseline(seed);
    s.train_ms = seconds_since(t_train) * 1e3;
  }
  s.warmup_failed = count_failed(
      run_round(*s.runner, s.arenas, s.ctx, 0, spec.warmup));
  s.seconds = seconds_since(t0);
  return s;
}

// Fixed-memory histogram of positive values with 0.1% wide log-spaced
// bins, so memory does not grow with the number of trials a run fits in
// (that would make peak_rss_mb follow host speed).
class LogHistogram {
 public:
  void add(double v) { ++bins_[index(v)]; }

  // Nearest-rank quantile, read as the geometric centre of its bin.
  [[nodiscard]] double quantile(double q) const {
    std::uint64_t total = 0;
    for (const auto c : bins_) total += c;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(total))));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      seen += bins_[b];
      if (seen >= rank) return kLo * std::pow(kStep, static_cast<double>(b) + 0.5);
    }
    return 0;
  }

 private:
  static constexpr double kLo = 1e-4;  // smallest value resolved
  static constexpr double kStep = 1.001;
  static constexpr std::size_t kBins = 25000;  // up to ~7e6 x kLo

  static std::size_t index(double v) {
    const double i = std::floor(std::log(v / kLo) / std::log(kStep));
    return static_cast<std::size_t>(
        std::clamp(i, 0.0, static_cast<double>(kBins - 1)));
  }

  std::vector<std::uint64_t> bins_ = std::vector<std::uint64_t>(kBins);
};

// The reference kernel. It runs once on every worker right after each
// round and each set-up, and the timings of that round or set-up are
// scaled by kReferenceMs / its mean time, that is, to a host on which the
// kernel takes exactly 1 ms. The program cannot change its time: it is
// compiled into the benchmark binary alone and uses none of the
// program's heap. README.md ("Noise") gives the measurements behind the
// choice between two kernels.
constexpr double kReferenceMs = 1.0;

// Eight times, map 256 KiB of fresh anonymous memory, fill it and unmap
// it. The host's slow phases hit page faults and fresh memory far harder
// than arithmetic, so this kernel follows a serial workload best.
double mapping_kernel_ms() {
  constexpr std::size_t kBytes = std::size_t{256} << 10;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 8; ++rep) {
    void* m = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) {
      std::perror("trialbench: mmap");
      std::exit(1);
    }
    std::memset(m, rep + 1, kBytes);
    asm volatile("" : : "r"(m) : "memory");
    munmap(m, kBytes);
  }
  return seconds_since(t0) * 1e3;
}

// A chain of 2^19 xorshift steps. With several workers the mapping
// kernels run side by side in one address space, where each unmap must
// reach the other workers' CPUs and the mappings share one lock, so they
// time each other rather than the host; this kernel shares nothing.
double arithmetic_kernel_ms() {
  thread_local std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto t0 = Clock::now();
  for (int i = 0; i < (1 << 19); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  asm volatile("" : : "r"(x) : "memory");
  return seconds_since(t0) * 1e3;
}

// Mean kernel time over one kernel per worker, run through the runner so
// that every worker's CPU is sampled (with one worker, on this thread).
double reference_ms(const TrialRunner& runner) {
  const std::size_t n = runner.jobs();
  const auto kernel = n == 1 ? mapping_kernel_ms : arithmetic_kernel_ms;
  const double sum = runner.reduce(
      n, [] { return 0.0; },
      [&](double& acc, std::size_t) { acc += kernel(); },
      [](double& total, double&& part) { total += part; });
  return sum / static_cast<double>(n);
}

// The host switches between speeds in phases of seconds to minutes: the
// same trials run up to 1.9x slower, CPU time included, and the share of
// slow time differs from run to run. Scaling each round by the
// reference kernel timed right after it cancels most of that. The
// whole-loop figures are sums of scaled rounds, so a cost that hits only
// some rounds or trials still counts in full. README.md gives the
// measurements.
constexpr std::size_t kSetupReps = 7;  // set-ups per run; setup_s is their median

// One kernel time varies by about 5% from call to call, which a sum over
// hundreds of rounds averages out but a single set-up does not. So a
// set-up is scaled by the median of several.
constexpr int kSetupKernels = 5;

int run_untraced(const WorkloadSpec& spec, std::uint64_t seed,
                 double seconds) {
  std::vector<double> setup_s;      // scaled to the reference speed
  std::vector<double> raw_setup_s;  // as timed
  std::size_t warmup_failed = 0;
  const auto set_up_again = [&] {
    Setup s = set_up(spec, seed);
    std::vector<double> kernel;
    for (int k = 0; k < kSetupKernels; ++k) {
      kernel.push_back(reference_ms(*s.runner));
    }
    const double scale = kReferenceMs / median(kernel);
    setup_s.push_back(s.seconds * scale);
    raw_setup_s.push_back(s.seconds);
    warmup_failed += s.warmup_failed;
    return s;
  };
  Setup s = set_up_again();

  // Closed loop: rounds until the time is up and the digest sample is
  // complete. Within a round every worker starts its next trial as soon
  // as its previous one returns. The other set-ups are spread evenly
  // over the loop, between rounds, so they sample its phases too.
  std::size_t trials = 0;
  std::size_t failed = 0;
  std::vector<std::uint64_t> digest_hashes;
  LogHistogram trial_ms;      // scaled
  LogHistogram raw_trial_ms;  // as timed
  std::size_t rounds = 0;
  double wall = 0;         // as timed
  double cpu = 0;          // as timed
  double scaled_wall = 0;  // sum of round wall times, each scaled
  double scaled_cpu = 0;   // sum of round CPU times, each scaled
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds || trials < spec.sample) {
    if (setup_s.size() < kSetupReps &&
        seconds_since(t0) >= seconds * static_cast<double>(setup_s.size()) /
                                 static_cast<double>(kSetupReps)) {
      s = set_up_again();
    }
    const double cpu0 = cpu_seconds();
    const auto r0 = Clock::now();
    const std::vector<Sample> round =
        run_round(*s.runner, s.arenas, s.ctx, trials, spec.round);
    const double round_wall = seconds_since(r0);
    const double round_cpu = cpu_seconds() - cpu0;
    const double scale = kReferenceMs / reference_ms(*s.runner);
    ++rounds;
    wall += round_wall;
    cpu += round_cpu;
    scaled_wall += round_wall * scale;
    scaled_cpu += round_cpu * scale;
    for (const Sample& x : round) {
      trial_ms.add(x.host_ms * scale);
      raw_trial_ms.add(x.host_ms);
      if (!x.result.passed) ++failed;
      if (digest_hashes.size() < spec.sample) {
        digest_hashes.push_back(x.result.hash);
      }
    }
    trials += round.size();
  }
  while (setup_s.size() < kSetupReps) s = set_up_again();

  const auto n = static_cast<double>(trials);
  std::printf("trials %zu\nrounds %zu\n", trials, rounds);
  std::printf("attempted %zu\nfailed %zu\nwarmup_failed %zu\n", trials,
              failed, warmup_failed);
  std::printf("digest %016" PRIx64 "\n", fold_digest(digest_hashes));
  // For reading only: unscaled whole-loop figures, which move with the
  // run's share of slow host phases.
  std::printf("loop_trials_per_s %.6g\nloop_trial_ms_p50 %.6g\n"
              "loop_cpu_ms_per_trial %.6g\nloop_setup_s %.6g\n",
              n / wall, raw_trial_ms.quantile(0.5), cpu * 1e3 / n,
              median(raw_setup_s));
  print_metric("trials_per_s", "1/s", n / scaled_wall);
  print_metric("trial_ms.p50", "ms", trial_ms.quantile(0.5));
  print_metric("cpu_ms_per_trial", "ms", scaled_cpu * 1e3 / n);
  print_metric("setup_s", "s", median(setup_s));
  print_metric("peak_rss_mb", "MB", peak_rss_mb());
  return 0;
}

// Upper edge of the histogram bin that holds quantile q (64-wide bins
// over [0, 4096): the obs layer records no finer queue depth).
double bin_quantile(const std::vector<std::uint64_t>& bins, double q) {
  std::uint64_t total = 0;
  for (const auto c : bins) total += c;
  const double width = 4096.0 / static_cast<double>(bins.size());
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    seen += bins[b];
    if (seen > 0 && static_cast<double>(seen) >= q * static_cast<double>(total)) {
      return width * static_cast<double>(b + 1);
    }
  }
  return 0;
}

double bin_max(const std::vector<std::uint64_t>& bins) {
  const double width = 4096.0 / static_cast<double>(bins.size());
  for (std::size_t b = bins.size(); b-- > 0;) {
    if (bins[b] != 0) return width * static_cast<double>(b + 1);
  }
  return 0;
}

int run_traced(const WorkloadSpec& spec, std::uint64_t seed) {
  Setup s = set_up(spec, seed);

  // Untraced sample at the workload's worker count.
  const auto t_plain = Clock::now();
  const std::vector<Sample> plain =
      run_round(*s.runner, s.arenas, s.ctx, 0, spec.sample);
  const double plain_wall = seconds_since(t_plain);

  // Allocation counts: the same trials serially, in trial order, in a
  // fresh arena. How often an arena's buffers grow depends on the trials
  // it ran before, so with workers sharing out the trials the counts
  // would follow scheduling.
  AllocTotals alloc;
  {
    TrialArena arena;
    for (std::size_t i = 0; i < spec.sample; ++i) {
      TrialRunner::reset_trial_thread_state();
      const AllocTotals a0 = thread_alloc_totals();
      (void)run_trial(s.ctx, i, &arena, nullptr);
      const AllocTotals a1 = thread_alloc_totals();
      alloc.count += a1.count - a0.count;
      alloc.bytes += a1.bytes - a0.bytes;
    }
  }

  // The same trials traced, serially, in one arena.
  LayerCounts counts;
  std::vector<std::uint64_t> traced_hashes;
  std::size_t traced_failed = 0;
  const auto t_traced = Clock::now();
  for (std::size_t i = 0; i < spec.sample; ++i) {
    TrialRunner::reset_trial_thread_state();
    const TrialResult r = run_trial(s.ctx, i, s.arenas[0].get(), &counts);
    traced_hashes.push_back(r.hash);
    if (!r.passed) ++traced_failed;
  }
  const double traced_ms = seconds_since(t_traced) * 1e3;

  double plain_ms = 0;
  std::uint64_t plain_events = 0;
  for (const Sample& x : plain) {
    plain_ms += x.host_ms;
    plain_events += x.result.events;
  }
  const auto n = static_cast<double>(spec.sample);
  const auto per_trial = [n](std::uint64_t v) {
    return static_cast<double>(v) / n;
  };

  std::printf("trials %zu\n", plain.size());
  std::printf("attempted %zu\nfailed %zu\nwarmup_failed %zu\n",
              plain.size() + spec.sample, count_failed(plain) + traced_failed,
              s.warmup_failed);
  std::printf("digest %016" PRIx64 "\n", digest_of(plain));
  std::printf("traced_digest %016" PRIx64 "\n", fold_digest(traced_hashes));

  const double visited_per_dispatch =
      counts.dispatches == 0 ? 0.0
                             : static_cast<double>(counts.visited) /
                                   static_cast<double>(counts.dispatches);
  const double depth_p50 = bin_quantile(counts.queue_depth_bins, 0.5);
  DrillInputs in;
  in.queue_depth = static_cast<std::size_t>(depth_p50);
  in.listeners = static_cast<std::size_t>(std::lround(visited_per_dispatch));
  in.hosts = static_cast<std::size_t>(per_trial(counts.hosts_tracked));
  in.seed = seed;
  const DrillResults d = run_drills(spec.id, in);

  // ids.train_ms: the baseline training that defense_stack does in
  // set-up, timed on every workload so the metric always reads a
  // measurement.
  std::vector<double> train_ms;
  if (spec.id == WorkloadId::DefenseStack) train_ms.push_back(s.train_ms);
  while (train_ms.size() < 3) {
    const auto t0 = Clock::now();
    (void)train_stacked_baseline(seed);
    train_ms.push_back(seconds_since(t0) * 1e3);
  }

  const double trial_ns = plain_ms * 1e6 / n;
  const double events = per_trial(counts.events);
  const double dispatches = per_trial(counts.dispatches);
  const double attributed =
      events * d.loop_ns_per_event + per_trial(counts.lldp_macs) * d.hmac_ns +
      per_trial(counts.xtea_pairs) * d.xtea_ns +
      dispatches * visited_per_dispatch * d.dispatch_ns_per_listener +
      d.testbed_construct_ms * 1e6;

  print_metric("sim.events_per_trial", "count", events);
  print_metric("sim.host_ns_per_event", "ns",
               plain_ms * 1e6 / static_cast<double>(plain_events));
  print_metric("sim.queue_depth.p50", "count", depth_p50);
  print_metric("sim.queue_depth.max", "count", bin_max(counts.queue_depth_bins));
  print_metric("sim.loop_ns_per_event", "ns", d.loop_ns_per_event);
  print_metric("crypto.lldp_macs_per_trial", "count", per_trial(counts.lldp_macs));
  print_metric("crypto.hmac_ns", "ns", d.hmac_ns);
  print_metric("crypto.hmac_bytes", "bytes", static_cast<double>(d.hmac_len));
  print_metric("crypto.xtea_ns", "ns", d.xtea_ns);
  print_metric("net.lldp_codec_ns", "ns", d.lldp_codec_ns);
  print_metric("of.flow_lookup_ns", "ns", d.flow_lookup_ns);
  print_metric("of.flow_table_population", "count",
               static_cast<double>(d.flow_population));
  print_metric("topo.path_ns.miss", "ns", d.path_miss_ns);
  print_metric("topo.path_ns.hit", "ns", d.path_hit_ns);
  print_metric("ctrl.pipeline.dispatches_per_trial", "count", dispatches);
  print_metric("ctrl.pipeline.visited_per_dispatch", "count", visited_per_dispatch);
  for (const auto& [name, v] : counts.listener_dispatches) {
    print_metric("ctrl.listener." + name + ".dispatches_per_trial", "count",
                 per_trial(v));
  }
  print_metric("ctrl.pipeline.dispatch_ns_per_listener", "ns",
               d.dispatch_ns_per_listener);
  print_metric("ctrl.lldp.emitted_per_trial", "count", per_trial(counts.lldp_emitted));
  print_metric("ctrl.lldp.matched_ratio", "ratio",
               counts.lldp_emitted == 0
                   ? 0.0
                   : static_cast<double>(counts.lldp_matched) /
                         static_cast<double>(counts.lldp_emitted));
  print_metric("ctrl.host_table.learn_ns", "ns", d.host_learn_ns);
  print_metric("ctrl.host_table.find_ns", "ns", d.host_find_ns);
  print_metric("ctrl.hosts_tracked", "count", per_trial(counts.hosts_tracked));
  print_metric("defense.alerts_per_trial", "count", per_trial(counts.alerts));
  print_metric("ids.train_ms", "ms", median(train_ms));
  print_metric("ids.scored_per_trial", "count", per_trial(counts.ids_scored));
  print_metric("ids.deviations_per_trial", "count", per_trial(counts.ids_deviations));
  print_metric("attack.lldp_relayed_per_trial", "count", per_trial(counts.lldp_relayed));
  print_metric("attack.flaps_per_trial", "count", per_trial(counts.flaps));
  print_metric("stats.p2_add_ns", "ns", d.p2_add_ns);
  print_metric("stats.latency_window_add_ns", "ns", d.latency_window_add_ns);
  print_metric("scenario.testbed_build_ms", "ms", d.testbed_build_ms);
  print_metric("scenario.worker_busy_ratio", "ratio",
               plain_ms / 1e3 /
                   (plain_wall * static_cast<double>(s.runner->jobs())));
  print_metric("obs.traced_overhead_ratio", "ratio", traced_ms / plain_ms);
  print_metric("alloc.count_per_trial", "count", per_trial(alloc.count));
  print_metric("alloc.bytes_per_trial", "bytes", per_trial(alloc.bytes));
  print_metric("layers.unattributed_ratio", "ratio", 1.0 - attributed / trial_ns);
  return 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "trialbench: %s\nusage: trialbench --workload "
               "race_mc|defense_stack|fleet_loaded [--seed N] [--seconds S] "
               "[--trace 0|1]\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      spec = find_workload(value);
      if (spec == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      seed = parse_u64("--seed", value);
    } else if (flag == "--seconds") {
      seconds = static_cast<double>(parse_u64("--seconds", value));
    } else if (flag == "--trace") {
      traced = parse_u64("--trace", value) != 0;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (spec == nullptr) usage("--workload is required");
  return traced ? run_traced(*spec, seed) : run_untraced(*spec, seed, seconds);
}
