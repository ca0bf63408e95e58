// Tests for the controller event trace: the "ctrl" instants the
// controller writes into an attached Observability's TraceLog, and the
// console view render_console() builds from them.
#include <gtest/gtest.h>

#include <algorithm>

#include "ctrl/controller.hpp"
#include "obs/observability.hpp"
#include "scenario/testbed.hpp"

namespace tmg::ctrl {
namespace {

using namespace tmg::sim::literals;
using scenario::Testbed;
using scenario::TestbedOptions;

/// Record one controller event the way Controller::trace_event does.
void record(obs::TraceLog& log, sim::SimTime at, EventKind kind,
            std::string detail,
            std::optional<of::Location> loc = std::nullopt) {
  const obs::SpanId id =
      log.instant(at, kTraceCategory, to_string(kind), std::move(detail));
  if (loc) log.annotate(id, "loc", loc->to_string());
}

std::uint64_t count(const obs::TraceLog& log, EventKind kind) {
  return log.count(kTraceCategory, to_string(kind));
}

/// "detail" arguments of every stored event of `kind`, in order.
std::vector<std::string> details_of(const obs::TraceLog& log,
                                    EventKind kind) {
  std::vector<std::string> out;
  for (const auto& r : log.records()) {
    if (r.is_span || r.category != kTraceCategory ||
        r.name != to_string(kind)) {
      continue;
    }
    std::string detail;
    for (const auto& [key, value] : r.args) {
      if (key == "detail") detail = value;
    }
    out.push_back(detail);
  }
  return out;
}

TEST(CtrlTrace, RecordsAndCounts) {
  obs::TraceLog log;
  record(log, sim::SimTime::zero(), EventKind::PortDown, "x",
         of::Location{0x1, 2});
  record(log, sim::SimTime::zero() + 1_ms, EventKind::PortUp, "y",
         of::Location{0x1, 2});
  record(log, sim::SimTime::zero() + 2_ms, EventKind::PortDown, "z");
  EXPECT_EQ(log.category_total(kTraceCategory), 3u);
  EXPECT_EQ(count(log, EventKind::PortDown), 2u);
  EXPECT_EQ(count(log, EventKind::Alert), 0u);
  EXPECT_EQ(details_of(log, EventKind::PortUp),
            std::vector<std::string>{"y"});
}

TEST(CtrlTrace, ConsoleLine) {
  obs::TraceLog log;
  record(log, sim::SimTime::from_nanos(1'500'000'000), EventKind::LinkAdded,
         "0x1:10<->0x2:10", of::Location{0x2, 10});
  record(log, sim::SimTime::from_nanos(2'000'000'000), EventKind::PortUp, "");
  EXPECT_EQ(render_console(log),
            "[     1.500s] LINK_ADDED   0x2:10     0x1:10<->0x2:10\n"
            "[     2.000s] PORT_UP      -          \n");
}

TEST(CtrlTrace, ConsoleShowsLastNControllerEvents) {
  // The console reads only "ctrl" instants: pipeline spans, other
  // categories' instants and the controller's own probe spans share
  // the log but never take a console line.
  obs::TraceLog log;
  for (int i = 0; i < 20; ++i) {
    const sim::SimTime at = sim::SimTime::from_nanos(i);
    const obs::SpanId span = log.begin_span(at, "pipeline", "dispatch");
    record(log, at, EventKind::PacketIn, "evt" + std::to_string(i));
    log.end_span(span, at);
    log.instant(at, "attack", "probe", "noise" + std::to_string(i));
    log.begin_span(at, kTraceCategory, "probe.reachability");
  }
  const std::string out = render_console(log, 3);
  EXPECT_EQ(out.find("evt16"), std::string::npos);
  EXPECT_NE(out.find("evt17"), std::string::npos);
  EXPECT_NE(out.find("evt19"), std::string::npos);
  EXPECT_EQ(out.find("noise"), std::string::npos);
  EXPECT_EQ(out.find("probe.reachability"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_EQ(render_console(log, 0), "");
  const std::string all = render_console(log);
  EXPECT_EQ(std::count(all.begin(), all.end(), '\n'), 20);
}

TEST(CtrlTrace, KindNames) {
  EXPECT_STREQ(to_string(EventKind::PacketIn), "PACKET_IN");
  EXPECT_STREQ(to_string(EventKind::HostBlocked), "HOST_BLOCKED");
  EXPECT_STREQ(to_string(EventKind::EchoRtt), "ECHO_RTT");
  EXPECT_STREQ(kTraceCategory, "ctrl");
}

// ---------------- Live controller integration ----------------

struct TracedNet {
  Testbed tb{TestbedOptions{}};
  obs::Observability obs;
  attack::Host* h1;
  attack::Host* h2;

  TracedNet() {
    tb.add_switch(0x1);
    tb.add_switch(0x2);
    tb.connect_switches(0x1, 10, 0x2, 10);
    attack::HostConfig c1;
    c1.mac = net::MacAddress::host(1);
    c1.ip = net::Ipv4Address::host(1);
    h1 = &tb.add_host(0x1, 1, c1);
    attack::HostConfig c2;
    c2.mac = net::MacAddress::host(2);
    c2.ip = net::Ipv4Address::host(2);
    h2 = &tb.add_host(0x2, 1, c2);
    tb.set_observability(&obs);
  }

  [[nodiscard]] std::uint64_t count(EventKind kind) const {
    return ctrl::count(obs.trace(), kind);
  }
};

TEST(CtrlTraceIntegration, DiscoveryAndLearningAreTraced) {
  TracedNet net;
  net.tb.start(3_s);
  net.h1->send_arp_request(net.h2->ip());
  net.h2->send_arp_request(net.h1->ip());
  net.tb.run_for(500_ms);
  EXPECT_EQ(net.count(EventKind::LinkAdded), 1u);
  EXPECT_EQ(net.count(EventKind::HostNew), 2u);
  EXPECT_GE(net.count(EventKind::PacketIn), 3u);  // LLDP + ARP
  EXPECT_GE(net.count(EventKind::EchoRtt), 2u);
  EXPECT_GE(net.count(EventKind::FlowMod), 1u);
}

TEST(CtrlTraceIntegration, PortFlapAndLinkRemovalTraced) {
  TracedNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(200_ms);
  net.h1->flap_interface(30_ms);
  net.tb.run_for(200_ms);
  EXPECT_EQ(net.count(EventKind::PortDown), 1u);
  EXPECT_EQ(net.count(EventKind::PortUp), 1u);
}

TEST(CtrlTraceIntegration, MovesAndBlocksTraced) {
  TracedNet net;
  of::DataLink& target = net.tb.add_access_link(0x2, 4);
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(200_ms);
  scenario::migrate_host(net.tb, *net.h1, target, 200_ms);
  net.tb.run_for(400_ms);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(200_ms);
  EXPECT_EQ(net.count(EventKind::HostMoved), 1u);
  const auto moves = details_of(net.obs.trace(), EventKind::HostMoved);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_NE(moves[0].find("0x1:1 -> 0x2:4"), std::string::npos);
}

TEST(CtrlTraceIntegration, AlertsMirroredIntoTrace) {
  TracedNet net;
  net.tb.start(1_s);
  net.tb.controller().alerts().raise(ctrl::Alert{
      net.tb.loop().now(), "test", ctrl::AlertType::LldpFromHostPort,
      "synthetic", std::nullopt});
  EXPECT_EQ(net.count(EventKind::Alert), 1u);
  const auto alerts = details_of(net.obs.trace(), EventKind::Alert);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_NE(alerts[0].find("synthetic"), std::string::npos);
}

TEST(CtrlTraceIntegration, UnobservedControllerRecordsNothing) {
  // No sink attached: the services run the same code paths, and the
  // lazy detail callables never run.
  Testbed tb{TestbedOptions{}};
  tb.add_switch(0x1);
  tb.add_switch(0x2);
  tb.connect_switches(0x1, 10, 0x2, 10);
  tb.start(1_s);
  EXPECT_EQ(tb.controller().observability(), nullptr);
  int built = 0;
  tb.controller().trace_event(EventKind::Alert, [&] {
    ++built;
    return std::string{"unused"};
  });
  EXPECT_EQ(built, 0);
  EXPECT_EQ(tb.controller().topology().links_view().size(), 1u);
}

// ---------------- Reproducibility contract ----------------

/// One full traced run: discovery, ARP exchange, a port flap, and a
/// migration — every source of simulated randomness gets exercised.
/// Returns the JSONL export of the whole log (controller events and
/// pipeline spans).
std::string traced_run_jsonl(std::uint64_t seed) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.check_invariants = true;  // the checker must not perturb runs
  Testbed tb{opts};
  obs::Observability obs;
  tb.add_switch(0x1);
  tb.add_switch(0x2);
  tb.connect_switches(0x1, 10, 0x2, 10);
  attack::HostConfig c1;
  c1.mac = net::MacAddress::host(1);
  c1.ip = net::Ipv4Address::host(1);
  attack::Host& h1 = tb.add_host(0x1, 1, c1);
  attack::HostConfig c2;
  c2.mac = net::MacAddress::host(2);
  c2.ip = net::Ipv4Address::host(2);
  attack::Host& h2 = tb.add_host(0x2, 1, c2);
  of::DataLink& target = tb.add_access_link(0x2, 4);
  tb.set_observability(&obs);

  tb.start(1_s);
  h1.send_arp_request(h2.ip());
  h2.send_arp_request(h1.ip());
  tb.run_for(200_ms);
  h2.flap_interface(30_ms);
  tb.run_for(200_ms);
  scenario::migrate_host(tb, h1, target, 100_ms);
  tb.run_for(500_ms);
  EXPECT_GT(obs.trace().category_total(kTraceCategory), 0u);
  return obs.trace().to_jsonl();
}

TEST(CtrlTraceDeterminism, SameSeedProducesIdenticalTrace) {
  const std::string first = traced_run_jsonl(7);
  const std::string second = traced_run_jsonl(7);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second)
      << "bit-reproducibility broken: two same-seed runs diverged";
}

TEST(CtrlTraceDeterminism, DifferentSeedsProduceDifferentTraces) {
  // Latency jitter and micro-bursts are seeded, so RTT samples (and
  // usually event interleavings) must differ across seeds.
  EXPECT_NE(traced_run_jsonl(7), traced_run_jsonl(8));
}

}  // namespace
}  // namespace tmg::ctrl
