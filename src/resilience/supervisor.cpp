#include "resilience/supervisor.hpp"
// burst-lint: allow-file(no-direct-cluster) hosting boundary: builds a fresh cluster per attempt

#include <cstddef>
#include <utility>

#include "obs/metrics.hpp"

namespace burst::resilience {

bool recoverable_code(ErrorCode code) {
  return code == ErrorCode::kInjectedFault || code == ErrorCode::kPeerFailed ||
         code == ErrorCode::kClusterAborted ||
         code == ErrorCode::kCommTimeout || code == ErrorCode::kCommCorruption;
}

namespace {

/// Advances the plan past a failure on facts the simulator reports
/// deterministically: the crash entry the root cause fired and its virtual
/// failure time. Fired-message counters are racy near an abort, so every
/// message fault armed by the failure instant counts as spent.
void advance_plan_after_failure(sim::FaultPlan& plan, const Error& error,
                                double t_fail, obs::Registry* sink) {
  if (const auto* fired =
          dynamic_cast<const sim::InjectedFaultError*>(&error)) {
    plan.crashes.erase(plan.crashes.begin() +
                       static_cast<std::ptrdiff_t>(fired->fault_index()));
    // The aborted attempt's own count was dropped with its registry.
    if (sink != nullptr) {
      sink->counter("sim.faults.crashes_fired").add(1);
    }
  }
  const auto spent = [&](const auto& f) { return f.from_time_s <= t_fail; };
  std::erase_if(plan.drops, spent);
  std::erase_if(plan.duplicates, spent);
  std::erase_if(plan.corruptions, spent);
}

}  // namespace

void supervise(
    sim::Cluster::Config cluster, int max_recoveries,
    const std::function<bool(sim::Cluster&)>& attempt,
    const std::function<void(const Failure&, sim::Cluster::Config&)>& recover) {
  obs::Registry* const sink = cluster.metrics;
  for (int failures = 0;;) {
    obs::Registry scratch;
    sim::Cluster::Config attempt_cfg = cluster;
    attempt_cfg.metrics = sink != nullptr ? &scratch : nullptr;
    sim::Cluster c(std::move(attempt_cfg));
    try {
      const bool done = attempt(c);
      if (sink != nullptr) {
        sink->merge_from(scratch);
      }
      if (done) {
        return;
      }
    } catch (const Error& e) {
      if (!recoverable_code(e.code()) || ++failures > max_recoveries) {
        throw;
      }
      const int g = c.world_size();
      const int rank = c.last_failure_rank();
      const Failure f{
          .error = e,
          .rank = rank,
          .time_s = c.last_failure_time_s(),
          .detect_latency_s =
              g > 1 && rank >= 0
                  ? cluster.topo.link(rank, (rank + 1) % g).latency_s
                  : 0.0,
          .crashed = e.code() != ErrorCode::kCommTimeout &&
                     e.code() != ErrorCode::kCommCorruption};
      advance_plan_after_failure(cluster.faults, e, f.time_s, sink);
      recover(f, cluster);
    }
  }
}

void shrink_world(sim::Cluster::Config& cluster, int world) {
  sim::Topology topo = sim::Topology::single_node(world);
  topo.intra = cluster.topo.intra;
  topo.inter = cluster.topo.inter;
  cluster.topo = topo;
  sim::FaultPlan& plan = cluster.faults;
  const auto out = [world](int r) { return r >= world; };
  std::erase_if(plan.crashes, [&](const auto& c) { return out(c.rank); });
  std::erase_if(plan.stragglers, [&](const auto& s) { return out(s.rank); });
  const auto link_out = [&](const auto& f) { return out(f.src) || out(f.dst); };
  std::erase_if(plan.degradations, link_out);
  std::erase_if(plan.drops, link_out);
  std::erase_if(plan.duplicates, link_out);
  std::erase_if(plan.corruptions, link_out);
}

}  // namespace burst::resilience
