#include "scenario/fleet.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "check/assert.hpp"
#include "ctrl/host_tracker.hpp"

namespace tmg::scenario {

using sim::Duration;

FleetTestbed make_fleet_testbed(const FleetTestbedConfig& config) {
  FleetTestbed f;
  f.topo = topo::generate(config.topology);
  f.tb = std::make_unique<Testbed>(config.options);
  Testbed& tb = *f.tb;

  for (const auto& tier : f.topo.tiers) {
    for (topo::Dpid dpid : tier) tb.add_switch(dpid);
  }
  // links_view() is canonical-sorted, so the wiring order (and with it
  // every latency-model draw) is a pure function of the topology.
  for (const topo::Link& l : f.topo.graph.links_view()) {
    tb.connect_switches(l.a.dpid, l.a.port, l.b.dpid, l.b.port);
  }

  const std::size_t n_attach = f.topo.hosts.size();
  const std::size_t n_hosts =
      config.max_hosts == 0 ? n_attach : std::min(config.max_hosts, n_attach);
  TMG_ASSERT(n_hosts >= 4, "fleet: need at least 4 hosts for the role slots");
  TMG_ASSERT(config.spare_access_links >= 1,
             "fleet: need a spare access link for migration");

  f.population.reserve(n_hosts);
  f.population_links.reserve(n_hosts);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const topo::HostAttachment& att = f.topo.hosts[i];
    of::DataLink& link = tb.add_access_link(att.dpid, att.port);
    attack::HostConfig hc;
    hc.mac = topo::fleet_mac(static_cast<std::uint32_t>(i));
    hc.ip = topo::fleet_ip(static_cast<std::uint32_t>(i));
    hc.auth_token = FleetTestbed::token_of(i);
    f.population.push_back(&tb.add_host_on(link, hc));
    f.population_links.push_back(&link);
  }
  // Spare (vacant) access links go on fresh ports *above* the
  // generator's per-switch budget — host ports are the generator's
  // highest, so max attachment port + 1 onward is free — round-robin
  // over the edge switches in first-attachment order. This keeps every
  // generated attachment available for a tracked host (a k=16 fat-tree
  // really does track all 1,024).
  std::vector<std::pair<topo::Dpid, of::PortNo>> edge_top;  // dpid, max port
  for (const topo::HostAttachment& att : f.topo.hosts) {
    bool found = false;
    for (auto& e : edge_top) {
      if (e.first == att.dpid) {
        e.second = std::max(e.second, att.port);
        found = true;
        break;
      }
    }
    if (!found) edge_top.emplace_back(att.dpid, att.port);
  }
  for (std::size_t i = 0; i < config.spare_access_links; ++i) {
    auto& e = edge_top[i % edge_top.size()];
    f.spare_links.push_back(&tb.add_access_link(e.first, ++e.second));
  }

  const auto loc_of = [&](std::size_t i) {
    return of::Location{f.topo.hosts[i].dpid, f.topo.hosts[i].port};
  };
  f.victim = f.population[0];
  f.peer = f.population[1];
  f.attacker = f.population[n_hosts / 2];
  f.attacker_b = f.population[n_hosts - 1];
  f.victim_loc = loc_of(0);
  f.peer_loc = loc_of(1);
  f.attacker_loc = loc_of(n_hosts / 2);
  f.attacker_b_loc = loc_of(n_hosts - 1);
  TMG_ASSERT(f.victim_loc.dpid != f.attacker_loc.dpid &&
                 f.attacker_loc.dpid != f.attacker_b_loc.dpid,
             "fleet: role hosts must land on distinct edge switches "
             "(topology too small for max_hosts)");
  f.migration_target = f.spare_links[0];
  f.oob = &tb.add_oob_channel();  // 10 ms wireless hop for colluders
  return f;
}

defense::SecureBindingConfig fleet_enrollment(const FleetTestbed& f) {
  defense::SecureBindingConfig enrollment;
  for (std::size_t i = 0; i < f.population.size(); ++i) {
    const attack::Host* h = f.population[i];
    enrollment.registry[FleetTestbed::token_of(i)] = defense::Enrollment{
        "host-" + std::to_string(i), h->mac(), h->ip()};
  }
  return enrollment;
}

void fleet_warm_hosts(FleetTestbed& f, Duration stagger) {
  sim::EventLoop& loop = f.tb->loop();
  // The victim announces first (one broadcast flood); everyone else then
  // unicasts a join packet to its *predecessor*. Each join has a unique
  // destination MAC, so no previously installed (dst-matched) flow rule
  // can swallow the table miss — every host is guaranteed a Packet-In
  // and therefore an HTS record, at ~20 events per host instead of a
  // fleet-wide flood per host.
  f.victim->send_arp_request(f.victim->ip());
  f.tb->run_for(Duration::millis(50));
  for (std::size_t i = 1; i < f.population.size(); ++i) {
    attack::Host* h = f.population[i];
    const attack::Host* prev = f.population[i - 1];
    const net::MacAddress dst_mac = prev->mac();
    const net::Ipv4Address dst_ip = prev->ip();
    loop.post_after(stagger * static_cast<std::int64_t>(i - 1),
                    [h, dst_mac, dst_ip] {
                      h->send_raw(dst_mac, dst_ip, "join", 64);
                    });
  }
  f.tb->run_for(stagger * static_cast<std::int64_t>(f.population.size()) +
                Duration::millis(100));
}

void fleet_attach_background(FleetTestbed& f, BackgroundTraffic& bg) {
  for (std::size_t i = 0; i < f.population.size(); ++i) {
    attack::Host* h = f.population[i];
    const bool role = h == f.victim || h == f.peer || h == f.attacker ||
                      h == f.attacker_b;
    bg.add_endpoint(*h, role ? nullptr : f.population_links[i]);
  }
  // spare_links[0] stays reserved as the victim's migration target.
  for (std::size_t i = 1; i < f.spare_links.size(); ++i) {
    bg.add_spare_link(*f.spare_links[i]);
  }
}

namespace {

/// The fleet's roles for the attack scripts. The warm-up hook forks the
/// background load into `bg` even when `background_on` is false, so the
/// idle control cell draws the same RNG stream as the loaded one.
AttackSite fleet_site(FleetTestbed& f, std::optional<BackgroundTraffic>& bg,
                      bool background_on) {
  AttackSite site;
  site.tb = f.tb.get();
  site.victim = f.victim;
  site.peer = f.peer;
  site.attacker = f.attacker;
  site.attacker_b = f.attacker_b;
  site.attacker_loc = f.attacker_loc;
  site.attacker_b_loc = f.attacker_b_loc;
  site.migration_target = f.migration_target;
  site.oob = f.oob;
  site.enrollment = fleet_enrollment(f);
  site.warm_up = [&f] { fleet_warm_hosts(f); };
  site.start_background = [&f, &bg, background_on] {
    bg.emplace(*f.tb, f.tb->fork_rng(), BackgroundTrafficConfig{});
    fleet_attach_background(f, *bg);
    if (background_on) bg->start();
  };
  // Probe cadence re-derived for fleet geometry: an inter-pod fat-tree
  // round trip crosses up to 8 fabric hops at 5 ms each (~41 ms RTT,
  // plus micro-burst tail), so the paper's 35 ms two-switch timeout
  // would declare a *live* victim down on every probe. The period keeps
  // each probe's timeout inside its cycle.
  site.probe_period = Duration::millis(100);
  site.probe_timeout = Duration::millis(80);
  // The fleet's benign session never pauses (no quiet tail).
  site.pause_session = false;
  return site;
}

/// Flow-rule relay target: the attacker's edge switch when it has two
/// fabric links, else the lowest-dpid switch that does (links_view() is
/// sorted, so the choice is deterministic). Splicing the relay's first
/// two inter-switch ports makes discovery fabricate a direct link
/// between their far ends.
void bind_relay(const FleetTestbed& f, AttackSite& site) {
  std::map<of::Dpid, std::vector<topo::Link>> incident;
  for (const topo::Link& l : f.topo.graph.links_view()) {
    incident[l.a.dpid].push_back(l);
    incident[l.b.dpid].push_back(l);
  }
  of::Dpid relay_dpid = 0;
  if (incident[f.attacker_loc.dpid].size() >= 2) {
    relay_dpid = f.attacker_loc.dpid;
  } else {
    for (const auto& [dpid, links] : incident) {
      if (links.size() >= 2) {
        relay_dpid = dpid;
        break;
      }
    }
  }
  TMG_ASSERT(relay_dpid != 0,
             "fleet flow-rule relay: no switch with two fabric links");
  const topo::Link& left = incident[relay_dpid][0];
  const topo::Link& right = incident[relay_dpid][1];
  site.relay_dpid = relay_dpid;
  site.relay.left_port = left.a.dpid == relay_dpid ? left.a.port : left.b.port;
  site.relay.right_port =
      right.a.dpid == relay_dpid ? right.a.port : right.b.port;
  site.relay_link = topo::Link{left.a.dpid == relay_dpid ? left.b : left.a,
                               right.a.dpid == relay_dpid ? right.b : right.a};
}

template <typename Config>
FleetTestbed build_fleet(const topo::GeneratorConfig& topology,
                         std::size_t max_hosts, const Config& config) {
  FleetTestbedConfig ftc;
  ftc.topology = topology;
  ftc.max_hosts = max_hosts;
  ftc.options =
      trial_options(suite_options(config.suite, config.seed), config);
  return make_fleet_testbed(ftc);
}

}  // namespace

FleetHijackOutcome run_fleet_hijack(const FleetHijackConfig& config) {
  HijackConfig race;
  race.suite = config.suite;
  race.seed = config.seed;
  race.victim_downtime = config.victim_downtime;
  race.collect_pipeline_stats = config.collect_pipeline_stats;
  race.obs = config.obs;
  race.check_invariants = config.check_invariants;
  race.arena = config.arena;
  race.profile = config.profile;
  FleetTestbed f = build_fleet(config.topology, config.max_hosts, race);
  std::optional<BackgroundTraffic> bg;
  AttackSite site = fleet_site(f, bg, config.background_on);
  site.settle = config.settle_window;

  FleetHijackOutcome out;
  static_cast<HijackOutcome&>(out) = race_script(race, site);
  out.hosts_tracked = f.tb->controller().host_tracker().host_count();
  out.background = bg->stats();
  out.alerts_total = out.alerts_before_rejoin + out.alerts_after_rejoin;
  return out;
}

FleetLinkAttackOutcome run_fleet_link_attack(
    const FleetLinkAttackConfig& config) {
  LinkAttackConfig link;
  link.kind = config.kind;
  link.suite = config.suite;
  link.seed = config.seed;
  link.benign_window = config.benign_window;
  link.attack_window = config.attack_window;
  link.collect_pipeline_stats = config.collect_pipeline_stats;
  link.obs = config.obs;
  link.check_invariants = config.check_invariants;
  link.arena = config.arena;
  link.profile = config.profile;
  FleetTestbed f = build_fleet(config.topology, 0, link);
  std::optional<BackgroundTraffic> bg;
  AttackSite site = fleet_site(f, bg, config.background_on);
  if (config.kind == LinkAttackKind::FlowRuleRelay) bind_relay(f, site);

  FleetLinkAttackOutcome out;
  static_cast<LinkAttackOutcome&>(out) = link_attack_script(link, site);
  out.hosts_tracked = f.tb->controller().host_tracker().host_count();
  out.background = bg->stats();
  return out;
}

}  // namespace tmg::scenario
