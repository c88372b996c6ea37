#include "sim/chaos.hpp"

#include <algorithm>

#include "tensor/rng.hpp"

namespace burst::sim {

namespace {

/// Per-category inclusion probabilities.
constexpr double kCrashProb = 0.5;
constexpr double kStragglerProb = 0.5;
constexpr double kDegradeProb = 0.5;   // world > 1 only
constexpr double kDropProb = 0.35;     // world > 1 only
constexpr double kCorruptProb = 0.35;  // world > 1 only
/// Upper bounds per category (draw count is uniform in [1, max]).
constexpr int kMaxCrashes = 2;
constexpr double kMaxStragglerSlowdown = 4.0;
constexpr int kMaxMessageFaults = 3;

}  // namespace

FaultPlan make_chaos_plan(std::uint64_t seed, const ChaosSpec& spec) {
  tensor::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC4A05);
  FaultPlan plan;
  const int world = std::max(1, spec.world);
  const auto rank = [&] { return static_cast<int>(rng.next_index(world)); };
  const auto when = [&] { return rng.next_uniform() * spec.horizon_s; };

  if (rng.next_uniform() < kCrashProb) {
    const int n = 1 + static_cast<int>(rng.next_index(kMaxCrashes));
    for (int i = 0; i < n; ++i) {
      FaultPlan::CrashDevice c;
      c.rank = rank();
      c.at_time_s = when();
      plan.crashes.push_back(c);
    }
  }
  if (rng.next_uniform() < kStragglerProb) {
    FaultPlan::Straggler s;
    s.rank = rank();
    s.slowdown = 1.5 + rng.next_uniform() * (kMaxStragglerSlowdown - 1.5);
    s.from_time_s = when();
    plan.stragglers.push_back(s);
  }
  if (world > 1) {
    if (rng.next_uniform() < kDegradeProb) {
      FaultPlan::DegradeLink d;
      d.src = rank();
      d.dst = -1;
      d.from_time_s = when();
      d.until_time_s = d.from_time_s + spec.horizon_s * rng.next_uniform();
      d.bandwidth_factor = 0.1 + 0.5 * rng.next_uniform();
      d.extra_latency_s = 1e-6 * rng.next_uniform();
      plan.degradations.push_back(d);
    }
    if (rng.next_uniform() < kDropProb) {
      FaultPlan::DropMessages d;
      d.src = -1;
      d.dst = rank();
      d.count = 1 + static_cast<int>(rng.next_index(kMaxMessageFaults));
      d.from_time_s = when();
      plan.drops.push_back(d);
    }
    if (rng.next_uniform() < kCorruptProb) {
      FaultPlan::CorruptMessages c;
      c.src = -1;
      c.dst = rank();
      c.count = 1 + static_cast<int>(rng.next_index(kMaxMessageFaults));
      c.from_time_s = when();
      plan.corruptions.push_back(c);
    }
  }
  return plan;
}

}  // namespace burst::sim
