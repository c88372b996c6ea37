// The recovery supervisor: the one attempt -> classify -> charge -> recover
// loop behind resilient training (resilience/driver.hpp), crash-recovering
// serving and retrying distributed prefill (serve/resilience.hpp). Callers
// supply the attempt body and the recover step; the loop decides the rest
// (DESIGN.md section 9). Each attempt runs on a fresh cluster with a scratch
// metrics registry that is folded into the caller's only on commit. A
// failure is classified by recoverable_code(), charged at the root cause's
// virtual failure time plus a topology-derived detection latency, and
// consumed from the fault plan, so a faulted run is a function of its seed.
// burst-lint: allow-file(no-direct-cluster) the supervisor owns the cluster lifecycle: it builds a fresh cluster for every attempt and edits its config between attempts
#pragma once

#include <functional>

#include "obs/error.hpp"
#include "sim/cluster.hpp"

namespace burst::resilience {

/// Failures a supervisor can retry past: injected crashes and the comm-layer
/// errors they (or message faults) produce. Anything else (OOM, stalls,
/// invalid arguments) would recur on replay.
bool recoverable_code(ErrorCode code);

/// What the supervisor learned about an aborted attempt.
struct Failure {
  /// The root cause Cluster::run rethrew.
  const Error& error;
  /// Cluster::last_failure_rank() and last_failure_time_s().
  int rank = -1;
  double time_s = 0.0;
  /// One link latency from the failed rank to its ring successor: the time
  /// the failure takes to reach the peer blocked on it. 0 on one device,
  /// where the host observes the failure directly.
  double detect_latency_s = 0.0;
  /// A device died (crash-rooted), as opposed to a message fault.
  bool crashed = false;

  /// What the aborted attempt costs on its own clock.
  double detected_at_s() const { return time_s + detect_latency_s; }
};

/// Runs `attempt` on a fresh cluster built from `cluster` until it returns
/// true. After each recoverable failure the fault plan drops the crash that
/// fired and the message faults armed by then, and `recover` may edit the
/// config for the next attempt. Rethrows any other failure, and the one
/// past `max_recoveries`.
void supervise(
    sim::Cluster::Config cluster, int max_recoveries,
    const std::function<bool(sim::Cluster&)>& attempt,
    const std::function<void(const Failure&, sim::Cluster::Config&)>& recover);

/// Shrinks `cluster` to a flat `world`-rank node with the same link classes,
/// dropping fault entries that name ranks outside it (wildcards stay).
void shrink_world(sim::Cluster::Config& cluster, int world);

}  // namespace burst::resilience
