#include "drills.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/xtea.hpp"
#include "ctrl/host_table.hpp"
#include "ctrl/message_pipeline.hpp"
#include "defense/lli.hpp"
#include "net/lldp.hpp"
#include "net/packet.hpp"
#include "of/flow_table.hpp"
#include "scenario/background_traffic.hpp"
#include "scenario/experiments.hpp"
#include "scenario/fleet.hpp"
#include "sim/event_loop.hpp"
#include "stats/latency_window.hpp"
#include "stats/streaming_quantile.hpp"
#include "topo/generate.hpp"
#include "topo/path_cache.hpp"

namespace trialbench {

namespace {

using Clock = std::chrono::steady_clock;
using tmg::sim::Duration;
using tmg::sim::SimTime;

// Keeps a computed value alive without emitting a store.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Median ns per operation over five batches. `batch(n)` performs n
// operations; n doubles until one batch lasts at least 4 ms.
double ns_per_op(const std::function<void(std::size_t)>& batch) {
  std::size_t n = 1;
  for (;;) {
    const auto t0 = Clock::now();
    batch(n);
    if (ns_since(t0) >= 4e6 || n >= (std::size_t{1} << 30)) break;
    n *= 2;
  }
  std::vector<double> per_op;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    batch(n);
    per_op.push_back(ns_since(t0) / static_cast<double>(n));
  }
  return median(per_op);
}

std::vector<std::uint8_t> seed_bytes(std::uint64_t seed) {
  std::vector<std::uint8_t> b(8);
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  return b;
}

// post_at + step with `depth` live events: every step pops the earliest
// event and the post appends one after the latest, so depth holds.
double loop_drill(std::size_t depth) {
  tmg::sim::EventLoop loop;
  const std::int64_t spacing = 1000;
  for (std::size_t d = 0; d < depth; ++d) {
    loop.post_at(SimTime::from_nanos(spacing * static_cast<std::int64_t>(d + 1)),
                 [] {});
  }
  const Duration ahead = Duration::nanos(spacing * static_cast<std::int64_t>(depth));
  return ns_per_op([&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      loop.post_at(loop.now() + ahead, [] {});
      loop.step();
    }
  });
}

class NoopListener final : public tmg::ctrl::MessageListener {
 public:
  explicit NoopListener(std::size_t i) : name_{"noop-" + std::to_string(i)} {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint32_t subscriptions() const override { return ~0u; }
  tmg::ctrl::Disposition on_message(const tmg::ctrl::PipelineMessage&,
                                    tmg::ctrl::DispatchContext&) override {
    return tmg::ctrl::Disposition::Continue;
  }

 private:
  std::string name_;
};

double dispatch_drill(std::size_t listeners) {
  tmg::ctrl::MessagePipeline pipeline;
  for (std::size_t i = 0; i < listeners; ++i) {
    pipeline.add_owned(static_cast<int>(i), std::make_unique<NoopListener>(i));
  }
  const tmg::of::PacketIn pi;
  const tmg::ctrl::PipelineMessage msg = tmg::ctrl::PipelineMessage::from(pi);
  const double per_dispatch = ns_per_op([&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      tmg::ctrl::DispatchContext ctx;
      pipeline.dispatch(msg, ctx);
      keep(ctx.visited);
    }
  });
  return per_dispatch / static_cast<double>(listeners);
}

double flow_lookup_drill(std::size_t population) {
  tmg::of::FlowTable table;
  std::vector<tmg::net::Packet> packets(population);
  for (std::size_t i = 0; i < population; ++i) {
    tmg::of::FlowEntry e;
    e.cookie = i + 1;
    e.match.dst_mac = tmg::net::MacAddress::host(static_cast<std::uint32_t>(i + 1));
    e.action = tmg::of::FlowAction::output(static_cast<tmg::of::PortNo>(1 + i % 8));
    table.add(e, SimTime::zero());
    packets[i].src_mac = tmg::net::MacAddress::host(static_cast<std::uint32_t>(population + 1));
    packets[i].dst_mac = *e.match.dst_mac;
  }
  return ns_per_op([&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      keep(table.lookup(packets[i % population], 1, SimTime::zero()));
    }
  });
}

void path_drills(DrillResults& r) {
  tmg::topo::GeneratorConfig gen;
  gen.k = 8;
  const tmg::topo::GeneratedTopology topo = tmg::topo::generate(gen);
  std::vector<std::pair<tmg::topo::Dpid, tmg::topo::Dpid>> pairs;
  for (const auto& a_tier : topo.tiers) {
    for (const auto a : a_tier) {
      for (const auto& b_tier : topo.tiers) {
        for (const auto b : b_tier) {
          if (a != b) pairs.emplace_back(a, b);
        }
      }
    }
  }
  tmg::topo::PathCache cache{topo.graph};
  r.path_miss_ns = ns_per_op([&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i % pairs.size() == 0) cache.clear();
      const auto& [a, b] = pairs[i % pairs.size()];
      keep(cache.path(a, b).has_value());
    }
  });
  for (const auto& [a, b] : pairs) (void)cache.path(a, b);
  r.path_hit_ns = ns_per_op([&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [a, b] = pairs[i % pairs.size()];
      keep(cache.path(a, b).has_value());
    }
  });
}

tmg::ctrl::HostRecord host_record(std::size_t i) {
  tmg::ctrl::HostRecord rec;
  rec.mac = tmg::topo::fleet_mac(static_cast<std::uint32_t>(i));
  rec.ip = tmg::topo::fleet_ip(static_cast<std::uint32_t>(i));
  rec.loc = tmg::of::Location{1 + (i >> 6), static_cast<tmg::of::PortNo>(i & 63)};
  return rec;
}

// learn_ns fills a fresh table to the population (construction
// included, as when a controller learns its hosts); find_ns looks the
// population up round-robin.
void host_table_drills(std::size_t hosts, DrillResults& r) {
  std::vector<tmg::ctrl::HostRecord> recs;
  for (std::size_t i = 0; i < hosts; ++i) recs.push_back(host_record(i));
  r.host_learn_ns = ns_per_op([&](std::size_t n) {
    for (std::size_t done = 0; done < n;) {
      tmg::ctrl::HostTable table;
      for (std::size_t i = 0; i < hosts && done < n; ++i, ++done) {
        keep(&table.insert(recs[i]));
      }
    }
  });
  tmg::ctrl::HostTable table;
  for (const auto& rec : recs) table.insert(rec);
  r.host_find_ns = ns_per_op([&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) keep(table.find(recs[i % hosts].mac));
  });
}

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

void stats_drills(std::uint64_t seed, DrillResults& r) {
  std::uint64_t s = seed | 1;
  const auto sample = [&] {
    return static_cast<double>(xorshift(s) % 100000) / 1000.0;
  };
  tmg::stats::StreamingQuantile q{0.5};
  for (int i = 0; i < 1024; ++i) q.add(sample());  // past the exact limit
  r.p2_add_ns = ns_per_op([&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) q.add(sample());
    keep(q.count());
  });
  tmg::defense::LliConfig lli;
  tmg::stats::LatencyWindow w{lli.window_capacity};
  for (std::size_t i = 0; i < lli.window_capacity; ++i) w.add(sample());
  r.latency_window_add_ns = ns_per_op([&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) w.add(sample());
    keep(w.size());
  });
}

std::size_t max_table(tmg::scenario::Testbed& tb,
                      const std::vector<tmg::of::Dpid>& dpids) {
  std::size_t m = 0;
  for (const auto d : dpids) m = std::max(m, tb.get_switch(d).flow_table().size());
  return m;
}

// Median build + start time of the workload's testbed, and of the build
// alone (start() runs discovery events that the traced counts already
// hold). One extra build is warmed up with hosts (and, on the fleet,
// background traffic) to read the flow-table population a trial's
// opening phase reaches.
void testbed_drill(WorkloadId workload, std::uint64_t seed, DrillResults& r) {
  const Duration warmup = Duration::seconds(2);
  std::vector<double> ms;
  std::vector<double> construct_ms;
  const auto timed = [&](auto build) {
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      auto bed = build();
      construct_ms.push_back(ns_since(t0) / 1e6);
      bed.tb->start(warmup);
      ms.push_back(ns_since(t0) / 1e6);
    }
  };
  switch (workload) {
    case WorkloadId::RaceMc: {
      const auto build = [&] {
        return tmg::scenario::make_fig2_testbed(tmg::scenario::suite_options(
            tmg::scenario::DefenseSuite::TopoGuard, seed));
      };
      timed(build);
      auto f = build();
      f.tb->start(warmup);
      tmg::scenario::fig2_warm_hosts(f);
      f.tb->run_for(Duration::seconds(1));
      r.flow_population = max_table(*f.tb, {0x1, 0x2});
      break;
    }
    case WorkloadId::DefenseStack: {
      const auto build = [&] {
        tmg::scenario::TestbedOptions o = tmg::scenario::fig9_options(seed);
        const auto suite = tmg::scenario::suite_options(
            tmg::scenario::DefenseSuite::Stacked, seed);
        o.controller.authenticate_lldp = suite.controller.authenticate_lldp;
        o.controller.lldp_timestamps = suite.controller.lldp_timestamps;
        return tmg::scenario::make_fig9_testbed(o);
      };
      timed(build);
      auto f = build();
      f.tb->start(warmup);
      tmg::scenario::fig9_warm_hosts(f);
      f.tb->run_for(Duration::seconds(1));
      r.flow_population = max_table(*f.tb, {0x1, 0x2, 0x3, 0x4, 0x5});
      break;
    }
    case WorkloadId::FleetLoaded: {
      const auto build = [&] {
        tmg::scenario::FleetTestbedConfig cfg;
        cfg.topology.k = 8;
        cfg.options = tmg::scenario::suite_options(
            tmg::scenario::DefenseSuite::None, seed);
        return tmg::scenario::make_fleet_testbed(cfg);
      };
      timed(build);
      auto f = build();
      f.tb->start(warmup);
      tmg::scenario::fleet_warm_hosts(f);
      tmg::scenario::BackgroundTraffic bg{*f.tb, f.tb->fork_rng(), {}};
      tmg::scenario::fleet_attach_background(f, bg);
      bg.start();
      f.tb->run_for(Duration::seconds(3));
      std::vector<tmg::of::Dpid> dpids;
      for (const auto& tier : f.topo.tiers) dpids.insert(dpids.end(), tier.begin(), tier.end());
      r.flow_population = max_table(*f.tb, dpids);
      break;
    }
  }
  r.testbed_build_ms = median(ms);
  r.testbed_construct_ms = median(construct_ms);
}

}  // namespace

DrillResults run_drills(WorkloadId workload, const DrillInputs& in) {
  DrillResults r;
  r.loop_ns_per_event = loop_drill(std::max<std::size_t>(in.queue_depth, 1));

  const tmg::crypto::Key key = tmg::crypto::Key::derive(seed_bytes(in.seed));
  const tmg::crypto::XteaKey xkey =
      tmg::crypto::XteaKey::derive(seed_bytes(in.seed + 1));
  // HMAC input: the LLDPDU core (chassis, port, TTL TLVs), which is what
  // LldpPacket::sign and verify MAC. An unsigned, unsealed frame
  // serializes to exactly that core.
  const std::vector<std::uint8_t> core =
      tmg::net::LldpPacket{0x5, 3}.serialize();
  r.hmac_len = core.size();
  r.hmac_ns = ns_per_op([&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) keep(tmg::crypto::hmac_sha256(key, core)[0]);
  });
  r.xtea_ns = ns_per_op([&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto sealed = tmg::crypto::seal_u64(xkey, i, i);
      std::uint64_t v = 0;
      keep(tmg::crypto::open_u64(xkey, i, sealed, v));
      keep(v);
    }
  });
  // A Stacked-suite frame: sealed timestamp plus authenticator.
  tmg::net::LldpPacket frame{0x5, 3};
  frame.set_encrypted_timestamp(xkey, 7, SimTime::from_nanos(123456789));
  frame.sign(key);
  r.lldp_codec_ns = ns_per_op([&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto bytes = frame.serialize();
      keep(tmg::net::LldpPacket::parse(bytes)->port_id());
    }
  });

  testbed_drill(workload, in.seed, r);
  r.flow_lookup_ns = flow_lookup_drill(std::max<std::size_t>(r.flow_population, 1));
  path_drills(r);
  r.dispatch_ns_per_listener = dispatch_drill(std::max<std::size_t>(in.listeners, 1));
  host_table_drills(std::max<std::size_t>(in.hosts, 1), r);
  stats_drills(in.seed, r);
  return r;
}

}  // namespace trialbench
