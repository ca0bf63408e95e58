// Heap allocation counters for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete for this
// executable only (the simulator libraries are untouched). Each thread
// keeps its own running totals, so a trial reads them before and after
// its run_* call and attributes the difference to itself, whichever
// worker thread it ran on.
#pragma once

#include <cstdint>

namespace trialbench {

struct AllocTotals {
  std::uint64_t count = 0;  // successful operator new calls
  std::uint64_t bytes = 0;  // bytes requested by those calls
};

/// Running totals of the calling thread since it started.
AllocTotals thread_alloc_totals();

}  // namespace trialbench
