// Randomized equivalence tests for the incremental data structures.
//
// Each structure (epoch-keyed PathCache, incremental LatencyWindow,
// DedupRing) is driven with random operation sequences and compared,
// step by step, against the naive recomputation it stands in for. The
// flow table has its own order-free model in property_test.cpp. Seeded
// Rng, so failures are reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_set>
#include <vector>

#include "ctrl/dedup_ring.hpp"
#include "sim/event_loop.hpp"
#include "sim/rng.hpp"
#include "stats/latency_window.hpp"
#include "stats/quantile.hpp"
#include "topo/graph.hpp"
#include "topo/path_cache.hpp"

namespace tmg {
namespace {

using sim::Duration;
using sim::Rng;

// ---------------- LatencyWindow vs sort-based reference ----------------

class LatencyWindowFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatencyWindowFuzz, IncrementalThresholdMatchesNaiveSort) {
  Rng rng{GetParam()};
  const auto capacity = static_cast<std::size_t>(rng.uniform_int(1, 40));
  const auto min_samples = static_cast<std::size_t>(rng.uniform_int(1, 10));
  const double k = 3.0;
  stats::LatencyWindow window{capacity, k, min_samples};
  std::deque<double> reference;  // same eviction policy, naive threshold

  for (int step = 0; step < 2000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 99));
    if (op < 90) {
      const double sample = rng.normal(20.0, 5.0);
      window.add(sample);
      reference.push_back(sample);
      if (reference.size() > capacity) reference.pop_front();
    } else if (op < 95) {
      // Threshold probe between mutations.
      const double probe = rng.normal(25.0, 10.0);
      std::optional<double> naive;
      if (reference.size() >= min_samples) {
        std::vector<double> sorted(reference.begin(), reference.end());
        std::sort(sorted.begin(), sorted.end());
        naive = stats::compute_iqr_sorted(sorted).upper_fence(k);
      }
      ASSERT_EQ(window.threshold(), naive) << "step " << step;
      ASSERT_EQ(window.is_outlier(probe),
                naive.has_value() && probe > *naive);
    } else {
      window.clear();
      reference.clear();
    }
    ASSERT_TRUE(window.audit().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyWindowFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------- PathCache vs fresh BFS ----------------

class PathCacheFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathCacheFuzz, CachedPathsMatchFreshBfsAcrossChurn) {
  Rng rng{GetParam()};
  topo::TopologyGraph graph;
  topo::PathCache cache{graph};
  constexpr of::Dpid kSwitches = 8;

  const auto random_loc = [&] {
    return of::Location{
        static_cast<of::Dpid>(rng.uniform_int(1, kSwitches)),
        static_cast<of::PortNo>(rng.uniform_int(1, 4))};
  };

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 99));
    if (op < 25) {
      const std::uint64_t before = graph.epoch();
      const bool added = graph.add_link(random_loc(), random_loc());
      // The epoch must move iff the link set changed.
      ASSERT_EQ(graph.epoch() != before, added);
    } else if (op < 40) {
      const std::uint64_t before = graph.epoch();
      const bool removed = graph.remove_link(random_loc(), random_loc());
      ASSERT_EQ(graph.epoch() != before, removed);
    } else if (op < 42) {
      const std::uint64_t before = graph.epoch();
      graph.clear();
      ASSERT_GT(graph.epoch(), before);
    } else {
      const auto from = static_cast<of::Dpid>(rng.uniform_int(1, kSwitches));
      const auto to = static_cast<of::Dpid>(rng.uniform_int(1, kSwitches));
      const auto cached = cache.path(from, to);
      const auto fresh = graph.path(from, to);
      ASSERT_EQ(cached.has_value(), fresh.has_value()) << "step " << step;
      if (cached) {
        ASSERT_EQ(cached->size(), fresh->size()) << "step " << step;
        for (std::size_t i = 0; i < cached->size(); ++i) {
          ASSERT_EQ((*cached)[i].from, (*fresh)[i].from);
          ASSERT_EQ((*cached)[i].to, (*fresh)[i].to);
        }
      }
    }
    ASSERT_TRUE(cache.audit().empty()) << "step " << step;
  }
  // Steady state must actually hit: repeat one query with no churn.
  (void)cache.path(1, 2);
  const std::uint64_t hits_before = cache.hits();
  (void)cache.path(1, 2);
  ASSERT_EQ(cache.hits(), hits_before + 1);
}

TEST(PathCache, FabricatedLinkInvalidatesCachedPath) {
  // The security property behind the epoch contract: once an attacker
  // fabricates a link, no pre-attack path may be served from cache.
  topo::TopologyGraph graph;
  topo::PathCache cache{graph};
  graph.add_link({1, 1}, {2, 1});
  graph.add_link({2, 2}, {3, 1});
  const auto before = cache.path(1, 3);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->size(), 2u);  // 1 -> 2 -> 3

  // Fabricated shortcut (the paper's link-fabrication attack).
  ASSERT_TRUE(graph.add_link({1, 2}, {3, 2}));
  const auto after = cache.path(1, 3);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->size(), 1u);  // routed over the fabricated edge
  ASSERT_TRUE(cache.audit().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathCacheFuzz,
                         ::testing::Values(21u, 22u, 23u));

// ---------------- DedupRing vs set+deque reference ----------------

class DedupRingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DedupRingFuzz, MatchesSetDequeReference) {
  Rng rng{GetParam()};
  const auto capacity = static_cast<std::size_t>(rng.uniform_int(4, 64));
  ctrl::DedupRing ring{capacity};
  std::unordered_set<std::uint64_t> ref_set;
  std::deque<std::uint64_t> ref_order;

  for (int step = 0; step < 20000; ++step) {
    // Small id universe so evict-then-reinsert cycles are common.
    const auto id = static_cast<std::uint64_t>(rng.uniform_int(1, 300));
    ASSERT_EQ(ring.contains(id), ref_set.contains(id)) << "step " << step;
    if (!ref_set.contains(id)) {
      ring.push(id);
      ref_set.insert(id);
      ref_order.push_back(id);
      while (ref_order.size() > capacity) {
        ref_set.erase(ref_order.front());
        ref_order.pop_front();
      }
    }
    ASSERT_EQ(ring.size(), ref_set.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DedupRingFuzz,
                         ::testing::Values(31u, 32u, 33u));

// ---------------- EventLoop post() ordering ----------------

TEST(EventLoopPost, PostAndScheduleShareOneOrderingDomain) {
  sim::EventLoop loop;
  std::vector<int> fired;
  loop.post_after(Duration::millis(5), [&] { fired.push_back(1); });
  loop.schedule_after(Duration::millis(5), [&] { fired.push_back(2); });
  loop.post_after(Duration::millis(5), [&] { fired.push_back(3); });
  loop.post_after(Duration::millis(1), [&] { fired.push_back(0); });
  loop.run();
  // Equal timestamps fire in insertion order across both APIs.
  ASSERT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(loop.events_executed(), 4u);
}

TEST(EventLoopPost, CancelledTimersInterleavedWithPosts) {
  sim::EventLoop loop;
  std::vector<int> fired;
  auto handle =
      loop.schedule_after(Duration::millis(2), [&] { fired.push_back(-1); });
  for (int i = 0; i < 200; ++i) {
    loop.post_after(Duration::millis(3), [&fired, i] { fired.push_back(i); });
  }
  handle.cancel();
  ASSERT_EQ(loop.live_events(), 200u);
  loop.run();
  ASSERT_EQ(fired.size(), 200u);
  ASSERT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

}  // namespace
}  // namespace tmg
