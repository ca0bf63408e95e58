#include "workloads.hpp"

#include <cstring>
#include <exception>
#include <memory>

#include "obs/observability.hpp"
#include "scenario/experiments.hpp"
#include "scenario/fleet.hpp"
#include "scenario/trial_runner.hpp"

namespace trialbench {

using tmg::scenario::DefenseSuite;
using tmg::scenario::LinkAttackKind;

namespace {

// Sizes chosen so a round is a few tens of milliseconds (deadline
// checks stay cheap), and the sample covers every kind several times.
const WorkloadSpec kWorkloads[] = {
    {WorkloadId::RaceMc, "race_mc", 1, 12, 60, 120, 120},
    {WorkloadId::DefenseStack, "defense_stack", 1, 5, 20, 20, 10},
    {WorkloadId::FleetLoaded, "fleet_loaded", 2, 1, 16, 16, 4},
};

const DefenseSuite kRaceSuites[] = {DefenseSuite::None,
                                    DefenseSuite::TopoGuard,
                                    DefenseSuite::TopoGuardAndSphinx};
constexpr std::size_t kNRaceSuites = 3;

const LinkAttackKind kLinkKinds[] = {
    LinkAttackKind::ClassicRelay, LinkAttackKind::OobAmnesia,
    LinkAttackKind::OobAmnesiaNaive, LinkAttackKind::InBandAmnesia,
    LinkAttackKind::FlowRuleRelay};

// Clean trials that train the defense_stack baseline, and the trial
// index range their seeds come from (disjoint from timed trials).
constexpr std::size_t kTrainTrials = 8;
constexpr std::size_t kTrainIndexBase = 1'000'000;

// The sim.queue_depth histogram layout registered by obs::Observability.
constexpr double kQueueDepthHi = 4096.0;
constexpr std::size_t kQueueDepthBins = 64;

class Hasher {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(bool b) { add(static_cast<std::uint64_t>(b ? 1 : 0)); }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(const std::optional<double>& d) {
    add(d.has_value());
    if (d) add(*d);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_anomaly(Hasher& h, const tmg::ids::AnomalyCounters& a) {
  h.add(a.scored);
  h.add(a.unseen_port);
  h.add(a.unseen_transition);
  h.add(a.unseen_trigram);
  h.add(a.lldp_src_violation);
  h.add(a.rate_breach);
  h.add(a.duration_outlier);
  h.add(a.alerts);
  h.add(a.vetoes);
}

std::uint64_t hash_outcome(const tmg::scenario::HijackOutcome& o) {
  Hasher h;
  h.add(o.hijack_succeeded);
  h.add(o.traffic_redirected);
  h.add(o.down_to_final_probe_start_ms);
  h.add(o.down_to_declared_down_ms);
  h.add(o.down_to_iface_up_ms);
  h.add(o.down_to_confirmed_ms);
  h.add(o.ident_change_ms);
  h.add(static_cast<std::uint64_t>(o.alerts_before_rejoin));
  h.add(static_cast<std::uint64_t>(o.alerts_after_rejoin));
  h.add(static_cast<std::uint64_t>(o.alerts_anomaly));
  h.add(static_cast<std::uint64_t>(o.alerts.size()));
  add_anomaly(h, o.anomaly);
  h.add(o.events_executed);
  return h.value();
}

std::uint64_t hash_outcome(const tmg::scenario::LinkAttackOutcome& o) {
  Hasher h;
  h.add(o.link_registered);
  h.add(o.link_present_at_end);
  h.add(o.mitm_traffic);
  h.add(o.lldp_relayed);
  h.add(o.transit_bridged);
  h.add(o.flaps);
  for (const std::size_t n :
       {o.alerts_before_attack, o.alerts_total, o.alerts_topoguard,
        o.alerts_sphinx, o.alerts_cmm, o.alerts_lli, o.alerts_anomaly}) {
    h.add(static_cast<std::uint64_t>(n));
  }
  add_anomaly(h, o.anomaly);
  h.add(o.events_executed);
  return h.value();
}

std::uint64_t hash_outcome(const tmg::scenario::FleetHijackOutcome& o) {
  Hasher h;
  h.add(o.hijack_succeeded);
  h.add(o.traffic_redirected);
  h.add(o.down_to_final_probe_start_ms);
  h.add(o.down_to_declared_down_ms);
  h.add(o.down_to_iface_up_ms);
  h.add(o.down_to_confirmed_ms);
  h.add(static_cast<std::uint64_t>(o.hosts_tracked));
  h.add(o.background.flows_started);
  h.add(o.background.packets_offered);
  h.add(o.background.arp_announcements);
  h.add(o.background.migrations);
  h.add(o.alerts_total);
  h.add(o.events_executed);
  return h.value();
}

std::uint64_t gauge_u64(tmg::obs::MetricsRegistry& m, const char* name) {
  return static_cast<std::uint64_t>(m.gauge(name).value());
}

// A traced trial gets a fresh Observability and per-listener stats.
template <typename Config>
std::unique_ptr<tmg::obs::Observability> attach_obs(Config& cfg,
                                                    const LayerCounts* counts) {
  if (counts == nullptr) return nullptr;
  auto obs = std::make_unique<tmg::obs::Observability>();
  cfg.obs = obs.get();
  cfg.collect_pipeline_stats = true;
  return obs;
}

// Work counts common to every driver, read from the finalized obs
// snapshot and the per-listener stats. With the suite's LLDP
// authentication on, every emitted frame is signed and every received
// non-reflected frame verified; with its timestamps on, every emitted
// frame is sealed.
template <typename Config, typename Outcome>
void read_common_counts(const Config& cfg, tmg::obs::Observability& obs,
                        const Outcome& out, LayerCounts& c) {
  const auto lldp = tmg::scenario::suite_options(cfg.suite, cfg.seed).controller;
  tmg::obs::MetricsRegistry& m = obs.metrics();
  const tmg::stats::Histogram& depth = m.histogram(
      "sim.queue_depth", 0.0, kQueueDepthHi, kQueueDepthBins);
  if (c.queue_depth_bins.empty()) c.queue_depth_bins.assign(kQueueDepthBins, 0);
  for (std::size_t b = 0; b < depth.bin_count(); ++b) {
    c.queue_depth_bins[b] += depth.count(b);
  }
  c.dispatches += m.counter("pipeline.dispatches").value();
  const tmg::stats::Histogram& visited =
      m.histogram("pipeline.visited", 0.0, 32.0, 32);
  for (std::size_t b = 0; b < visited.bin_count(); ++b) {
    c.visited += static_cast<std::uint64_t>(visited.bin_lo(b)) * visited.count(b);
  }
  const std::uint64_t emitted = gauge_u64(m, "lldp.emitted");
  const std::uint64_t matched = gauge_u64(m, "lldp.matched");
  c.lldp_emitted += emitted;
  c.lldp_matched += matched;
  if (lldp.authenticate_lldp) {
    c.lldp_macs += emitted + matched + gauge_u64(m, "lldp.duplicate") +
                   gauge_u64(m, "lldp.unsolicited") +
                   gauge_u64(m, "lldp.invalid_signature");
  }
  if (lldp.lldp_timestamps) c.xtea_pairs += emitted;
  c.hosts_tracked += gauge_u64(m, "ctrl.hosts_tracked");
  for (const auto& l : out.pipeline_stats) {
    c.listener_dispatches[l.name] += l.dispatches;
  }
}

TrialResult run_race(const WorkloadContext& ctx, std::size_t index,
                     tmg::scenario::TrialArena* arena, LayerCounts* counts) {
  const std::size_t kind = index % ctx.spec->kinds;
  tmg::scenario::HijackConfig cfg;
  cfg.suite = kRaceSuites[kind % kNRaceSuites];
  cfg.profile = ctx.profiles[kind / kNRaceSuites];
  cfg.seed = tmg::scenario::TrialRunner::trial_seed(ctx.base_seed, index);
  cfg.check_invariants = false;
  cfg.arena = arena;
  const auto obs = attach_obs(cfg, counts);
  const tmg::scenario::HijackOutcome out = tmg::scenario::run_hijack(cfg);
  if (counts != nullptr) {
    read_common_counts(cfg, *obs, out, *counts);
    counts->alerts += out.alerts.size();
    counts->ids_scored += out.anomaly.scored;
    counts->ids_deviations += out.anomaly.deviations();
  }
  return {hash_outcome(out), out.hijack_succeeded, out.events_executed};
}

TrialResult run_stack(const WorkloadContext& ctx, std::size_t index,
                      tmg::scenario::TrialArena* arena, LayerCounts* counts) {
  tmg::scenario::LinkAttackConfig cfg;
  cfg.kind = kLinkKinds[index % ctx.spec->kinds];
  cfg.suite = DefenseSuite::Stacked;
  cfg.profile = tmg::ctrl::floodlight_profile();
  cfg.seed = tmg::scenario::TrialRunner::trial_seed(ctx.base_seed, index);
  cfg.check_invariants = false;
  cfg.arena = arena;
  cfg.anomaly_profile = &*ctx.baseline;
  const auto obs = attach_obs(cfg, counts);
  const tmg::scenario::LinkAttackOutcome out =
      tmg::scenario::run_link_attack(cfg);
  if (counts != nullptr) {
    read_common_counts(cfg, *obs, out, *counts);
    counts->alerts += out.alerts_total;
    counts->ids_scored += out.anomaly.scored;
    counts->ids_deviations += out.anomaly.deviations();
    counts->lldp_relayed += out.lldp_relayed;
    counts->flaps += out.flaps;
  }
  return {hash_outcome(out), out.detected() && !out.link_present_at_end,
          out.events_executed};
}

TrialResult run_fleet(const WorkloadContext& ctx, std::size_t index,
                      tmg::scenario::TrialArena* arena, LayerCounts* counts) {
  tmg::scenario::FleetHijackConfig cfg;
  cfg.topology.k = 8;
  cfg.suite = DefenseSuite::None;
  cfg.seed = tmg::scenario::TrialRunner::trial_seed(ctx.base_seed, index);
  cfg.background_on = true;
  cfg.settle_window = tmg::sim::Duration::seconds(3);
  cfg.check_invariants = false;
  cfg.arena = arena;
  const auto obs = attach_obs(cfg, counts);
  const tmg::scenario::FleetHijackOutcome out =
      tmg::scenario::run_fleet_hijack(cfg);
  if (counts != nullptr) {
    read_common_counts(cfg, *obs, out, *counts);
    counts->alerts += out.alerts_total;
  }
  return {hash_outcome(out), out.hijack_succeeded && out.hosts_tracked == 128,
          out.events_executed};
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

WorkloadContext make_context(const WorkloadSpec& spec, std::uint64_t seed) {
  WorkloadContext ctx;
  ctx.spec = &spec;
  ctx.base_seed = seed;
  ctx.profiles = tmg::ctrl::all_profiles();
  return ctx;
}

tmg::ids::BehaviorProfile train_stacked_baseline(std::uint64_t base_seed) {
  tmg::ids::ProfileTrainer trainer;
  for (std::size_t t = 0; t < kTrainTrials; ++t) {
    tmg::scenario::LinkAttackConfig cfg;
    cfg.suite = DefenseSuite::Stacked;
    cfg.profile = tmg::ctrl::floodlight_profile();
    cfg.seed = tmg::scenario::TrialRunner::trial_seed(base_seed,
                                                      kTrainIndexBase + t);
    cfg.check_invariants = false;
    cfg.attack_enabled = false;
    cfg.anomaly_trainer = &trainer;
    (void)tmg::scenario::run_link_attack(cfg);
  }
  return trainer.finalize();
}

TrialResult run_trial(const WorkloadContext& ctx, std::size_t index,
                      tmg::scenario::TrialArena* arena, LayerCounts* counts) {
  try {
    TrialResult r;
    switch (ctx.spec->id) {
      case WorkloadId::RaceMc:
        r = run_race(ctx, index, arena, counts);
        break;
      case WorkloadId::DefenseStack:
        r = run_stack(ctx, index, arena, counts);
        break;
      case WorkloadId::FleetLoaded:
        r = run_fleet(ctx, index, arena, counts);
        break;
    }
    if (counts != nullptr) counts->events += r.events;
    return r;
  } catch (const std::exception&) {
    return {};
  }
}

std::uint64_t fold_digest(const std::vector<std::uint64_t>& hashes) {
  Hasher h;
  for (const std::uint64_t v : hashes) h.add(v);
  return h.value();
}

}  // namespace trialbench
