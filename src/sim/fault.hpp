// Deterministic fault injection for the cluster simulator.
//
// A FaultPlan attached to Cluster::Config describes faults in terms of the
// *virtual* clock (and, for crashes, optionally a training-step number the
// driver reports via DeviceContext::begin_step). Because the simulator is
// deterministic, every fault fires at a reproducible point: the same plan
// always produces the same trace, the same error, and the same recovery
// path — which is what lets tests assert on recovery behaviour bit-for-bit.
//
// Fault taxonomy (DESIGN.md section 9):
//   * CrashDevice       — a rank dies at a virtual time or step boundary
//                         (InjectedFaultError on the rank, PeerFailedError
//                         in peers blocked on it).
//   * Straggler         — a rank's compute/busy charges are multiplied by a
//                         slowdown factor from a given time (thermal
//                         throttling, noisy neighbour). Purely a timing
//                         fault: nothing errors, the ring just gates on it.
//   * DegradeLink       — a link's bandwidth is scaled / latency padded in a
//                         time window (flapping NIC, congested rail).
//   * DropMessages      — the next `count` messages on a link vanish on the
//                         wire; reliable senders observe the loss and retry.
//   * DuplicateMessages — the next `count` messages are delivered twice;
//                         receivers discard the copy by sequence number.
//   * CorruptMessages   — the next `count` payloads are bit-flipped in
//                         flight; receivers detect the checksum mismatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/error.hpp"

namespace burst::sim {

/// Raised in devices blocked on communication when a peer device failed.
/// burst::Error code: cluster_aborted.
class ClusterAbortedError : public burst::Error {
 public:
  ClusterAbortedError()
      : burst::Error(ErrorCode::kClusterAborted,
                     "cluster aborted by peer failure") {}

 protected:
  ClusterAbortedError(ErrorCode code, const std::string& what)
      : burst::Error(code, what) {}
};

/// Raised in devices blocked on a receive from a rank that is known to have
/// failed (crashed or threw). Subclass of ClusterAbortedError so existing
/// abort handling keeps working, but typed (code: peer_failed) so
/// supervisors can attribute the stall to a specific peer.
class PeerFailedError : public ClusterAbortedError {
 public:
  explicit PeerFailedError(int peer)
      : ClusterAbortedError(ErrorCode::kPeerFailed,
                            "peer rank " + std::to_string(peer) +
                                " failed while this rank was blocked on it"),
        peer_(peer) {}

  int peer() const { return peer_; }

 private:
  int peer_;
};

/// Raised on the rank a CrashDevice fault kills. This is a *root cause*
/// (unlike ClusterAbortedError), so Cluster::run rethrows it. burst::Error
/// code: injected_fault.
class InjectedFaultError : public burst::Error {
 public:
  InjectedFaultError(int rank, std::size_t fault_index,
                     const std::string& detail)
      : burst::Error(ErrorCode::kInjectedFault,
                     "injected fault on rank " + std::to_string(rank) + ": " +
                         detail),
        rank_(rank),
        fault_index_(fault_index) {}

  int rank() const { return rank_; }
  /// Index of the FaultPlan::crashes entry that fired.
  std::size_t fault_index() const { return fault_index_; }

 private:
  int rank_;
  std::size_t fault_index_;
};

/// Deterministic fault schedule. All times are virtual seconds; src/dst of
/// -1 is a wildcard matching any rank.
struct FaultPlan {
  /// Kill `rank`: fires at the first op boundary (compute/busy/send/recv/
  /// barrier/begin_step) at or after `at_time_s`, or at begin_step(step)
  /// with step >= at_step when at_step >= 0. One-shot: once fired it stays
  /// disarmed for the Cluster's lifetime; a supervisor that retries on a
  /// fresh cluster drops the entry the failure names
  /// (InjectedFaultError::fault_index, resilience/supervisor.hpp).
  struct CrashDevice {
    int rank = -1;
    double at_time_s = std::numeric_limits<double>::infinity();
    std::int64_t at_step = -1;
  };

  /// Multiply `rank`'s compute/busy durations by `slowdown` from
  /// `from_time_s` on. slowdown 3.0 == the device runs 3x slower.
  struct Straggler {
    int rank = -1;
    double slowdown = 1.0;
    double from_time_s = 0.0;
  };

  /// Scale a link's bandwidth by `bandwidth_factor` (<1 is slower) and pad
  /// its latency by `extra_latency_s` for sends begun inside
  /// [from_time_s, until_time_s).
  struct DegradeLink {
    int src = -1;
    int dst = -1;
    double from_time_s = 0.0;
    double until_time_s = std::numeric_limits<double>::infinity();
    double bandwidth_factor = 1.0;
    double extra_latency_s = 0.0;
  };

  /// Drop the next `count` matching messages sent at or after `from_time_s`.
  /// Budgets apply per concrete (src, dst) link: a wildcard entry gives each
  /// matching link its own `count` (shared cross-link budgets would burn in
  /// real-thread arrival order and break same-seed chaos replay). Same for
  /// DuplicateMessages and CorruptMessages below.
  struct DropMessages {
    int src = -1;
    int dst = -1;
    int count = 0;
    double from_time_s = 0.0;
  };

  /// Deliver the next `count` matching messages twice.
  struct DuplicateMessages {
    int src = -1;
    int dst = -1;
    int count = 0;
    double from_time_s = 0.0;
  };

  /// Perturb the payload of the next `count` matching messages so payload
  /// checksums fail on receive (detected as CommCorruptionError).
  struct CorruptMessages {
    int src = -1;
    int dst = -1;
    int count = 0;
    double from_time_s = 0.0;
  };

  std::vector<CrashDevice> crashes;
  std::vector<Straggler> stragglers;
  std::vector<DegradeLink> degradations;
  std::vector<DropMessages> drops;
  std::vector<DuplicateMessages> duplicates;
  std::vector<CorruptMessages> corruptions;

  bool empty() const {
    return crashes.empty() && stragglers.empty() && degradations.empty() &&
           drops.empty() && duplicates.empty() && corruptions.empty();
  }
};

/// Counters of faults that actually fired (cumulative over a Cluster's
/// lifetime; see Cluster::fault_stats).
struct FaultStats {
  std::uint64_t crashes_fired = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_corrupted = 0;
};

}  // namespace burst::sim
