// Fleet-scale sweep: topology size x background load (DESIGN.md §12).
//
// Every cell instantiates a generated fat-tree (topo::generate) as a
// live testbed — hundreds of switches, the full host population tracked
// by the sharded HTS — and runs the paper's two attacks end to end
// through the real pipeline while scenario::BackgroundTraffic keeps the
// control plane busy: the host-location hijack (Figs. 5-8 race windows,
// now raced against a loaded controller) and the classic link
// fabrication. The k=16 cell tracks all 1,024 generated hosts with
// background traffic on.
//
// Scale machinery is the same as bench_montecarlo: trials stream
// through TrialRunner::reduce() into streaming-quantile accumulators
// inside per-worker TrialArenas; chunk boundaries and merge order
// depend only on the trial count, so stdout (minus the [bench] footer)
// is byte-identical for every --jobs value (ctest golden.fleet_quick
// diffs jobs 1 and 4).
//
//   --trials N   trials per (cell, attack) (default 4; --quick 2)
//   --jobs N     worker threads (0 = hardware)
//   --obs-out / --trace-out
//                observed re-run of the first cell's hijack; export its
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
#include "scenario/fleet.hpp"
#include "scenario/trial_arena.hpp"
#include "scenario/trial_runner.hpp"
#include "stats/streaming_quantile.hpp"
#include "topo/generate.hpp"

using namespace tmg;
using namespace tmg::bench;

namespace {

// The hijack side of a cell: success count, tracked population and
// the median controller-confirmation window (Fig. 6).
struct HijackAcc {
  std::uint64_t trials = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t events = 0;
  std::uint64_t hosts_tracked = 0;  // identical per trial; keep the max
  stats::StreamingQuantile confirmed_p50{0.50};

  void fold(const scenario::FleetHijackOutcome& out) {
    ++trials;
    if (out.hijack_succeeded) ++succeeded;
    events += out.events_executed;
    hosts_tracked = std::max(hosts_tracked,
                             static_cast<std::uint64_t>(out.hosts_tracked));
    if (out.down_to_confirmed_ms) confirmed_p50.add(*out.down_to_confirmed_ms);
  }
  void merge(const HijackAcc& other) {
    trials += other.trials;
    succeeded += other.succeeded;
    events += other.events;
    hosts_tracked = std::max(hosts_tracked, other.hosts_tracked);
    confirmed_p50.merge(other.confirmed_p50);
  }
};

struct LinkAcc {
  std::uint64_t trials = 0;
  std::uint64_t registered = 0;
  std::uint64_t events = 0;

  void fold(const scenario::FleetLinkAttackOutcome& out) {
    ++trials;
    if (out.link_registered) ++registered;
    events += out.events_executed;
  }
  void merge(const LinkAcc& other) {
    trials += other.trials;
    registered += other.registered;
    events += other.events;
  }
};

struct Cell {
  std::string label;
  topo::GeneratorConfig gen;
  bool background = true;
  /// Controller pipeline profile override; unset = testbed default
  /// (Floodlight). The ONOS cell races the hijack against
  /// probe-before-move migration on the same fabric.
  std::optional<ctrl::ControllerProfile> profile;
};

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts =
      parse_harness_args(argc, argv, {trials_flag(), obs_flags()});
  banner("Fleet scale", "generated fabrics + background load, both attacks");

  const std::size_t per_cell = opts.trial_count(4, 2);

  std::vector<Cell> cells;
  {
    Cell c;
    c.label = "fat-tree k=4 idle";
    c.gen.k = 4;
    c.background = false;
    cells.push_back(c);
    c.label = "fat-tree k=4";
    c.background = true;
    cells.push_back(c);
    c.label = "fat-tree k=4 onos";
    c.gen.k = 4;
    c.profile = ctrl::onos_profile();
    cells.push_back(c);
    c.profile.reset();
    c.label = "fat-tree k=8";
    c.gen.k = 8;
    cells.push_back(c);
    if (!opts.quick) {
      // The headline cell: 320 switches, all 1,024 generated hosts
      // tracked, background traffic on.
      c.label = "fat-tree k=16";
      c.gen.k = 16;
      cells.push_back(c);
    }
  }

  scenario::TrialRunner runner{opts.runner_options()};
  std::vector<std::unique_ptr<scenario::TrialArena>> arenas;
  arenas.reserve(runner.jobs());
  for (std::size_t w = 0; w < runner.jobs(); ++w) {
    arenas.push_back(std::make_unique<scenario::TrialArena>());
  }

  WallTimer timer;
  std::vector<HijackAcc> hijacks;
  std::vector<LinkAcc> links;
  std::uint64_t events = 0;
  for (const Cell& cell : cells) {
    HijackAcc h = runner.reduce(
        per_cell, [] { return HijackAcc{}; },
        [&](HijackAcc& a, std::size_t i) {
          scenario::FleetHijackConfig cfg;
          cfg.topology = cell.gen;
          cfg.seed = scenario::TrialRunner::trial_seed(42, i);
          cfg.background_on = cell.background;
          cfg.profile = cell.profile;
          cfg.settle_window = sim::Duration::seconds(3);
          cfg.check_invariants = false;
          cfg.arena = arenas[scenario::TrialRunner::worker_slot()].get();
          a.fold(scenario::run_fleet_hijack(cfg));
        },
        [](HijackAcc& total, HijackAcc&& part) { total.merge(part); });
    LinkAcc l = runner.reduce(
        per_cell, [] { return LinkAcc{}; },
        [&](LinkAcc& a, std::size_t i) {
          scenario::FleetLinkAttackConfig cfg;
          cfg.topology = cell.gen;
          cfg.kind = scenario::LinkAttackKind::ClassicRelay;
          cfg.seed = scenario::TrialRunner::trial_seed(43, i);
          cfg.background_on = cell.background;
          cfg.profile = cell.profile;
          cfg.benign_window = sim::Duration::seconds(4);
          cfg.attack_window = sim::Duration::seconds(34);
          cfg.check_invariants = false;
          cfg.arena = arenas[scenario::TrialRunner::worker_slot()].get();
          a.fold(scenario::run_fleet_link_attack(cfg));
        },
        [](LinkAcc& total, LinkAcc&& part) { total.merge(part); });
    events += h.events + l.events;
    hijacks.push_back(std::move(h));
    links.push_back(std::move(l));
  }
  const double wall_ms = timer.elapsed_ms();

  Table table({"Topology", "sw", "hosts", "bg", "hijack", "p50 confirm ms",
               "link-reg", "events/trial"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const topo::GeneratedTopology shape = topo::generate(cells[c].gen);
    const HijackAcc& h = hijacks[c];
    const LinkAcc& l = links[c];
    const std::string confirmed_p50 =
        h.confirmed_p50.count() ? fmt("%.1f", h.confirmed_p50.value()) : "-";
    table.add_row(
        {cells[c].label, fmt_u(shape.switch_count()),
         fmt_u(h.hosts_tracked), cells[c].background ? "on" : "off",
         fmt_u(h.succeeded) + "/" + fmt_u(h.trials), confirmed_p50,
         fmt_u(l.registered) + "/" + fmt_u(l.trials),
         fmt_u((h.events + l.events) / (h.trials + l.trials))});
  }
  table.print();

  std::printf(
      "\nEach cell: %zu hijack + %zu link-fabrication trials on a live\n"
      "generated fabric (full population tracked by the sharded HTS,\n"
      "background flows/ARP churn/mobility on unless 'idle'), streamed\n"
      "through per-worker arenas; byte-identical at any --jobs.\n",
      per_cell, per_cell);

  BenchResult result;
  result.bench = "fleet";
  result.trials = per_cell * 2 * cells.size();
  result.base_seed = 42;
  result.jobs = runner.jobs();
  result.wall_ms = wall_ms;
  result.events = events;
  if (opts.observed()) {
    // Observed re-run of the first cell's hijack trial (seed 42), kept
    // out of the timed sweep above; --obs-out and --trace-out export
    // the snapshot / trace for tools/train_profile.
    obs::Observability obs;
    scenario::FleetHijackConfig cfg;
    cfg.topology = cells.front().gen;
    cfg.seed = scenario::TrialRunner::trial_seed(42, 0);
    cfg.background_on = cells.front().background;
    cfg.profile = cells.front().profile;
    cfg.settle_window = sim::Duration::seconds(3);
    cfg.check_invariants = false;
    cfg.obs = &obs;
    (void)scenario::run_fleet_hijack(cfg);
    if (!write_obs_artifacts(opts, obs)) return 1;
  }
  report_bench(result);
  return 0;
}
