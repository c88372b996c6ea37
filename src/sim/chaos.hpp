// Seeded random fault-plan generation for chaos testing.
//
// make_chaos_plan expands one integer seed into a FaultPlan drawn from the
// whole fault taxonomy — crashes, stragglers, link degradation, and message
// drop/duplicate/corrupt budgets — scaled to a virtual-time horizon and a
// world size. Because both the generator (tensor::Rng) and the simulator
// are deterministic, a seed IS a complete, replayable chaos experiment:
// the chaos harness (tests/test_serve_chaos.cpp, bench_serving_chaos)
// sweeps seeds and asserts the same seed always produces byte-identical
// behaviour.
//
// Each category's inclusion probability and count bound is a constant in
// chaos.cpp. Single-device worlds only draw crashes and stragglers (there
// are no links to degrade and the serving engine never sends); multi-rank
// worlds get the full taxonomy.
#pragma once

#include <cstdint>

#include "sim/fault.hpp"

namespace burst::sim {

struct ChaosSpec {
  int world = 1;
  /// Fault times are drawn uniformly from [0, horizon_s). Pick roughly the
  /// fault-free makespan of the workload so faults actually land inside it.
  double horizon_s = 1.0;
};

/// Deterministically expands `seed` into a fault plan under `spec`.
FaultPlan make_chaos_plan(std::uint64_t seed, const ChaosSpec& spec);

}  // namespace burst::sim
