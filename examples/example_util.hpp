// Shared helpers for the example programs.
//
// Each example parses its command line with parse_example_args against
// example_flags(): --check, --pipeline-stats, --obs-out DIR and
// --trace-out FILE, joined with the sets it also honours: profile_flag()
// (--profile NAME), modules_flag() (--modules list|+X,-Y) and
// jobs_flag() (--jobs N). README.md's flag table says which example
// takes which. A --check violation means the *simulator* is broken, so
// the examples abort rather than print numbers from corrupted state.
#pragma once

#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "cli/flags.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/profiles.hpp"
#include "obs/observability.hpp"
#include "scenario/testbed.hpp"

namespace tmg::examples {

struct ExampleArgs {
  bool check = false;
  bool pipeline_stats = false;
  bool list_modules = false;
  std::vector<std::string> enable_modules;   // --modules +Name
  std::vector<std::string> disable_modules;  // --modules -Name
  std::string obs_out;    // --obs-out DIR (empty: disabled)
  std::string trace_out;  // --trace-out FILE (empty: disabled)
  std::optional<ctrl::ControllerProfile> profile;  // --profile NAME
  std::size_t jobs = 0;  // --jobs N (0: hardware default)

  /// Either observability flag present?
  [[nodiscard]] bool obs_enabled() const {
    return !obs_out.empty() || !trace_out.empty();
  }
};

/// An example's table: --check, --pipeline-stats, --obs-out and
/// --trace-out, which every example honours, joined with `extra`.
inline cli::Table example_flags(std::initializer_list<cli::Table> extra = {}) {
  return cli::join({{"--check"},
                    {"--pipeline-stats"},
                    {"--obs-out", cli::Kind::kValue},
                    {"--trace-out", cli::Kind::kValue}},
                   extra);
}

inline cli::Table profile_flag() {
  return {{"--profile", cli::Kind::kChoice, ctrl::profile_cli_names()}};
}

inline cli::Table modules_flag() {
  return {{"--modules", cli::Kind::kValue}};
}

inline cli::Table jobs_flag() { return {{"--jobs", cli::Kind::kCount}}; }

/// Parse the command line against example_flags(extra), exiting 2 on
/// any other flag, and fill the example flags it set.
inline ExampleArgs parse_example_args(
    int argc, char** argv, std::initializer_list<cli::Table> extra = {}) {
  const cli::Args parsed = cli::parse_or_die(example_flags(extra), argc, argv);
  ExampleArgs args;
  args.check = parsed.has("--check");
  args.pipeline_stats = parsed.has("--pipeline-stats");
  args.obs_out = parsed.value("--obs-out");
  args.trace_out = parsed.value("--trace-out");
  args.profile = ctrl::profile_by_name(parsed.value("--profile"));
  args.jobs = parsed.count("--jobs");
  // Comma-separated list of "list", "+Name" or "-Name" tokens.
  std::istringstream modules{parsed.value("--modules")};
  for (std::string token; std::getline(modules, token, ',');) {
    if (token == "list") {
      args.list_modules = true;
    } else if (token.starts_with('+')) {
      args.enable_modules.push_back(token.substr(1));
    } else if (token.starts_with('-')) {
      args.disable_modules.push_back(token.substr(1));
    } else if (!token.empty()) {
      cli::die("--modules token '" + token +
               "' is not 'list', '+name' or '-name'");
    }
  }
  return args;
}

/// Apply `--check` to testbed options built by an example.
inline void apply_check_flag(scenario::TestbedOptions& opts,
                             const ExampleArgs& args) {
  if (args.check) opts.check_invariants = true;
}

/// Apply `--profile` to testbed options built by an example.
inline void apply_profile_flag(scenario::TestbedOptions& opts,
                               const ExampleArgs& args) {
  if (args.profile) opts.controller.profile = *args.profile;
}

/// Apply `--modules` to a controller whose defenses are installed:
/// print the chain for "list", then flip the requested listeners. A name
/// no listener on the assembled chain carries exits 2.
inline void apply_modules(ctrl::Controller& ctrl, const ExampleArgs& args) {
  if (args.list_modules) {
    std::printf("\n[--modules] pipeline chain (priority order):\n");
    for (const auto& s : ctrl.pipeline_stats()) {
      std::printf("  %4d  %-16s %s\n", s.priority, s.name.c_str(),
                  s.enabled ? "enabled" : "disabled");
    }
  }
  for (const bool enable : {true, false}) {
    for (const std::string& name :
         enable ? args.enable_modules : args.disable_modules) {
      if (!ctrl.pipeline().set_enabled(name, enable)) {
        cli::die("--modules: no listener named '" + name + "'");
      }
    }
  }
}

/// Footer for `--pipeline-stats`: per-listener dispatch counters. Wall
/// time is deliberately omitted (counters are deterministic, host
/// clocks are not).
inline void print_pipeline_stats(
    const std::vector<ctrl::MessagePipeline::ListenerStats>& stats,
    const ExampleArgs& args) {
  if (!args.pipeline_stats) return;
  std::printf("\n[--pipeline-stats] listener dispatch counters:\n");
  std::printf("  %4s  %-16s %10s %8s\n", "prio", "listener", "dispatches",
              "stops");
  for (const auto& s : stats) {
    std::printf("  %4d  %-16s %10llu %8llu\n", s.priority, s.name.c_str(),
                static_cast<unsigned long long>(s.dispatches),
                static_cast<unsigned long long>(s.stops));
  }
}

inline void print_pipeline_stats(const ctrl::Controller& ctrl,
                                 const ExampleArgs& args) {
  print_pipeline_stats(ctrl.pipeline_stats(), args);
}

/// Verification footer for a testbed the example built itself. Runs the
/// final battery so teardown state is validated too.
inline void print_check_summary(scenario::Testbed& tb) {
  check::InvariantChecker* checker = tb.invariant_checker();
  if (checker == nullptr) return;
  checker->final_check();
  std::printf("\n[--check] invariant sweeps: %llu, violations: %llu\n",
              static_cast<unsigned long long>(checker->checks_run()),
              static_cast<unsigned long long>(checker->violation_count()));
}

/// Verification footer for experiment-driver outcomes that carry the
/// checker counters.
inline void print_check_summary(unsigned long long sweeps,
                                unsigned long long violations) {
  std::printf("\n[--check] invariant sweeps: %llu, violations: %llu\n",
              sweeps, violations);
}

/// Build the Observability object when either obs flag is present
/// (callers keep it alive for the run); nullptr when disabled.
inline std::unique_ptr<obs::Observability> make_observability(
    const ExampleArgs& args) {
  if (!args.obs_enabled()) return nullptr;
  return std::make_unique<obs::Observability>();
}

/// Export footer for `--obs-out` / `--trace-out`: metrics snapshot (via
/// the registered collectors) and the span trace, all sim-time based so
/// reruns produce byte-identical files.
inline void export_observability(obs::Observability* obs, sim::SimTime at,
                                 const ExampleArgs& args) {
  if (obs == nullptr) return;
  if (!args.trace_out.empty()) {
    obs::write_text_file(args.trace_out, obs->trace().to_jsonl());
    std::printf("\n[--trace-out] %zu trace records -> %s\n",
                obs->trace().size(), args.trace_out.c_str());
  }
  if (!args.obs_out.empty()) {
    const std::string dir = args.obs_out;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best effort
    obs::write_text_file(dir + "/metrics.json", obs->metrics_json(at));
    obs::write_text_file(dir + "/metrics.csv", obs->metrics_csv(at));
    obs::write_text_file(dir + "/trace.jsonl", obs->trace().to_jsonl());
    obs::write_text_file(dir + "/trace_chrome.json",
                         obs->trace().to_chrome_trace());
    std::printf(
        "\n[--obs-out] %zu metrics, %zu trace records -> %s/"
        "{metrics.json,metrics.csv,trace.jsonl,trace_chrome.json}\n",
        obs->metrics().size(), obs->trace().size(), dir.c_str());
  }
}

}  // namespace tmg::examples
