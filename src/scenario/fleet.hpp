// Fleet-scale testbed + attack drivers (DESIGN.md §12).
//
// make_fleet_testbed instantiates a generated fabric (topo::generate)
// as a live simulated network: every switch, every fabric link, and one
// access link + host per attachment (capped by max_hosts), identities
// assigned by topo::fleet_mac / fleet_ip in attachment order. Four
// population slots double as experiment roles — victim and peer on the
// first edge switch, two colluding attackers on distinct edge switches
// further out — and the tail attachments stay vacant access links for
// background mobility plus the victim's migration target.
//
// run_fleet_hijack / run_fleet_link_attack bind the fleet's roles to the
// same race and link-attack scripts the paper-testbed drivers run
// (experiments.hpp). What differs is data on the binding: the probe
// cadence re-derived for fat-tree round trips, a continuous benign
// session, and deterministic background load
// (scenario::BackgroundTraffic) attached after warm-up. The outcomes add
// fleet observables (hosts tracked by the HTS, background stats) to the
// paper outcomes. Same (config, seed) -> byte-identical outcome, which
// bench_fleet pins across --jobs counts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "scenario/background_traffic.hpp"
#include "scenario/experiments.hpp"
#include "scenario/testbed.hpp"
#include "topo/generate.hpp"

namespace tmg::scenario {

struct FleetTestbedConfig {
  /// Fabric to instantiate (family, size, generator seed).
  topo::GeneratorConfig topology;
  /// Cap on instantiated hosts; 0 = one host per attachment. At least 4
  /// hosts are required for the role slots.
  std::size_t max_hosts = 0;
  /// Vacant access links (mobility pool + migration target), placed on
  /// fresh ports above the generator's per-switch budget, round-robin
  /// over the edge switches. At least 1 is required.
  std::size_t spare_access_links = 4;
  /// Base testbed options (latency profile, controller config, arena
  /// loop); usually suite_options(suite, seed) plus driver overrides.
  TestbedOptions options;
};

struct FleetTestbed {
  std::unique_ptr<Testbed> tb;
  topo::GeneratedTopology topo;

  /// Instantiated hosts in attachment order; population[i] carries
  /// fleet_mac(i)/fleet_ip(i) and auth token kTokenBase + i.
  std::vector<attack::Host*> population;
  /// population[i]'s access link (switch side A, host side B).
  std::vector<of::DataLink*> population_links;
  /// Vacant access links on ports above the generated attachments.
  /// spare_links[0] is reserved as the victim's migration target; the
  /// rest feed background mobility.
  std::vector<of::DataLink*> spare_links;

  // Role aliases into the population (never migrated by background
  // traffic; the drivers own their movement).
  attack::Host* victim = nullptr;      // population[0]
  attack::Host* peer = nullptr;        // population[1]
  attack::Host* attacker = nullptr;    // population[n/2]
  attack::Host* attacker_b = nullptr;  // population[n-1]
  of::Location victim_loc;
  of::Location peer_loc;
  of::Location attacker_loc;
  of::Location attacker_b_loc;
  of::DataLink* migration_target = nullptr;
  attack::OutOfBandChannel* oob = nullptr;

  /// 802.1x token of population[i] (SecureBinding enrollment).
  static constexpr std::uint64_t kTokenBase = 0x5EED'0000;
  [[nodiscard]] static std::uint64_t token_of(std::size_t index) {
    return kTokenBase + index;
  }
};

/// Build (but do not start) the fleet testbed.
FleetTestbed make_fleet_testbed(const FleetTestbedConfig& config);

/// Enrollment registry covering the whole population (SecureBinding).
[[nodiscard]] defense::SecureBindingConfig fleet_enrollment(
    const FleetTestbed& f);

/// Register every host with the HTS (call after start()): the victim
/// announces itself, then the rest unicast a join packet toward it,
/// staggered so the Packet-In stream is spread over `stagger` per host.
void fleet_warm_hosts(FleetTestbed& f,
                      sim::Duration stagger = sim::Duration::micros(500));

/// Attach background traffic to the whole population: every host is a
/// flow endpoint; every non-role host may migrate; spare links beyond
/// the reserved migration target feed the mobility pool.
void fleet_attach_background(FleetTestbed& f, BackgroundTraffic& bg);

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

struct FleetHijackConfig {
  topo::GeneratorConfig topology;
  DefenseSuite suite = DefenseSuite::None;
  std::uint64_t seed = 1;
  /// Cap on instantiated hosts (FleetTestbedConfig::max_hosts).
  std::size_t max_hosts = 0;

  /// Background load (default BackgroundTrafficConfig);
  /// background_on=false runs the identical timeline on an idle fabric
  /// (the control cell benches compare against).
  bool background_on = true;

  /// Steady probing + background before the victim's move; kept short
  /// relative to run_hijack because every fleet second is expensive.
  sim::Duration settle_window = sim::Duration::seconds(4);
  sim::Duration victim_downtime = sim::Duration::seconds(3);

  bool check_invariants = true;
  bool collect_pipeline_stats = false;
  std::optional<ctrl::ControllerProfile> profile;
  obs::Observability* obs = nullptr;
  TrialArena* arena = nullptr;
};

/// The paper outcome plus the fleet observables.
struct FleetHijackOutcome : HijackOutcome {
  /// HTS population at the end of the run (the fleet-scale observable:
  /// the race must be won against a full host table, not three hosts).
  std::size_t hosts_tracked = 0;
  BackgroundTraffic::Stats background;
  std::uint64_t alerts_total = 0;
};

FleetHijackOutcome run_fleet_hijack(const FleetHijackConfig& config);

struct FleetLinkAttackConfig {
  topo::GeneratorConfig topology;
  LinkAttackKind kind = LinkAttackKind::ClassicRelay;
  DefenseSuite suite = DefenseSuite::None;
  std::uint64_t seed = 1;

  /// Background load, as in FleetHijackConfig.
  bool background_on = true;

  /// Benign settle before the attack; the attack window must cover the
  /// 32 s two-LLDP-round registration horizon (link_attack_script).
  sim::Duration benign_window = sim::Duration::seconds(8);
  sim::Duration attack_window = sim::Duration::seconds(40);

  bool check_invariants = true;
  bool collect_pipeline_stats = false;
  std::optional<ctrl::ControllerProfile> profile;
  obs::Observability* obs = nullptr;
  TrialArena* arena = nullptr;
};

/// The paper outcome plus the fleet observables.
struct FleetLinkAttackOutcome : LinkAttackOutcome {
  std::size_t hosts_tracked = 0;
  BackgroundTraffic::Stats background;
};

FleetLinkAttackOutcome run_fleet_link_attack(
    const FleetLinkAttackConfig& config);

}  // namespace tmg::scenario
