// Unit-cost drills: timed calls into one layer's public functions, on
// inputs sized from the traced run's counts. They measure each layer
// from outside the simulator; multiplying a drill's unit cost by the
// matching per-trial count gives an estimate, not a trace.
#pragma once

#include <cstddef>
#include <cstdint>

#include "workloads.hpp"

namespace trialbench {

struct DrillInputs {
  std::size_t queue_depth = 1;  // live events held in the loop
  std::size_t listeners = 1;    // pipeline listeners visited per dispatch
  std::size_t hosts = 1;        // host-table population
  std::uint64_t seed = 0;
};

struct DrillResults {
  double loop_ns_per_event = 0;
  double hmac_ns = 0;
  std::size_t hmac_len = 0;  // bytes MACed per LLDP frame
  double xtea_ns = 0;
  double lldp_codec_ns = 0;
  double flow_lookup_ns = 0;
  std::size_t flow_population = 0;  // largest switch table after warm-up
  double path_miss_ns = 0;
  double path_hit_ns = 0;
  double dispatch_ns_per_listener = 0;
  double host_learn_ns = 0;
  double host_find_ns = 0;
  double p2_add_ns = 0;
  double latency_window_add_ns = 0;
  double testbed_build_ms = 0;      // make_*_testbed + Testbed::start
  double testbed_construct_ms = 0;  // make_*_testbed alone
};

/// Run every drill for `workload`. The testbed drill also measures the
/// flow-table population that sizes the flow-lookup drill.
DrillResults run_drills(WorkloadId workload, const DrillInputs& in);

}  // namespace trialbench
