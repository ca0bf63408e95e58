// The three trial workloads and how one trial of each is run, checked
// and hashed.
//
// A workload is a closed loop of seeded trials of one experiment driver
// (scenario::run_hijack, run_link_attack or run_fleet_hijack). Trial i
// uses the seed TrialRunner::trial_seed(base, i) and the trial kind
// i % kinds, so the kinds are interleaved round-robin and host slow
// periods hit every kind equally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ctrl/profiles.hpp"
#include "ids/behavior_profile.hpp"
#include "scenario/trial_arena.hpp"

namespace trialbench {

enum class WorkloadId { RaceMc, DefenseStack, FleetLoaded };

struct WorkloadSpec {
  WorkloadId id;
  const char* name;
  std::size_t jobs;        // worker threads (1 = no threads at all)
  std::size_t kinds;       // trial kinds, rotated round-robin
  std::size_t round;       // trials per TrialRunner::reduce call
  std::size_t sample;      // trials [0, sample): digest and traced sample
  std::size_t warmup;      // warm-up trials in each set-up
};

[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Exact work counts of traced trials, read from the obs snapshot and
/// the outcome struct, summed over the trials run with it.
struct LayerCounts {
  std::uint64_t events = 0;
  std::vector<std::uint64_t> queue_depth_bins;  // obs sim.queue_depth
  std::uint64_t dispatches = 0;                 // pipeline.dispatches
  std::uint64_t visited = 0;  // sum over dispatches of pipeline.visited
  std::map<std::string, std::uint64_t> listener_dispatches;
  std::uint64_t lldp_emitted = 0;
  std::uint64_t lldp_matched = 0;
  std::uint64_t lldp_macs = 0;   // LLDP frames signed + frames verified
  std::uint64_t xtea_pairs = 0;  // timestamps sealed (each later opened)
  std::uint64_t hosts_tracked = 0;
  std::uint64_t alerts = 0;
  std::uint64_t ids_scored = 0;
  std::uint64_t ids_deviations = 0;
  std::uint64_t lldp_relayed = 0;
  std::uint64_t flaps = 0;
};

struct TrialResult {
  std::uint64_t hash = 0;  // digest of the deterministic outcome
  bool passed = false;     // the workload's outcome predicate held
  std::uint64_t events = 0;
};

/// What the trials of one run share: the base seed, the controller
/// profiles, and on defense_stack the IDS baseline trained in set-up.
struct WorkloadContext {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t base_seed = 0;
  std::vector<tmg::ctrl::ControllerProfile> profiles;
  std::optional<tmg::ids::BehaviorProfile> baseline;
};

WorkloadContext make_context(const WorkloadSpec& spec, std::uint64_t seed);

/// Train defense_stack's anomaly baseline on clean Stacked link trials.
tmg::ids::BehaviorProfile train_stacked_baseline(std::uint64_t base_seed);

/// Run trial `index`. With `counts` non-null the trial runs traced (an
/// Observability attached) and its work counts are added to `counts`.
/// A trial that throws comes back with passed == false.
TrialResult run_trial(const WorkloadContext& ctx, std::size_t index,
                      tmg::scenario::TrialArena* arena, LayerCounts* counts);

/// FNV-1a fold of per-trial hashes, in trial order.
std::uint64_t fold_digest(const std::vector<std::uint64_t>& hashes);

}  // namespace trialbench
