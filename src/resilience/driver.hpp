// Resilient training driver: dist_train_step under the recovery supervisor
// (resilience/supervisor.hpp), one supervised attempt per step. The
// optimizer stays on the host (gradients are identical on all ranks after
// the data-parallel all-reduce, so rank 0's copy is authoritative), and
// durable snapshots are saved every `snapshot_interval` steps. After a
// failure the latest valid snapshot (weights, Adam moments, data-RNG state,
// data cursor) is restored at a modeled disk-read cost, the world optionally
// shrinks onto the survivors, and lost steps are replayed. Snapshots hold
// the *complete* training state and the step is deterministic, so a
// recovered run on the same world size ends bitwise identical to a
// fault-free one (tests/test_resilience.cpp). Recovery events land in the
// report and, with a TraceRecorder attached, on a supervisor trace track
// (pid == world_size).
// burst-lint: allow-file(no-direct-cluster) the training-resilience supervisor owns the cluster lifecycle (build, crash, rebuild), which is inherently a simulator-hosting concern
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/dist_model.hpp"
#include "model/optimizer.hpp"
#include "obs/report.hpp"
#include "resilience/snapshot.hpp"
#include "sim/cluster.hpp"
#include "tensor/rng.hpp"

namespace burst::resilience {

struct ResilienceConfig {
  model::DistTrainConfig dist;
  model::AdamConfig adam;
  /// Cluster to train on, including the FaultPlan under test and an
  /// optional trace sink.
  sim::Cluster::Config cluster;

  int total_steps = 8;
  /// Snapshot after every `snapshot_interval` committed steps (plus one at
  /// step 0 so recovery always has a floor). <= 0 means step-0 only.
  int snapshot_interval = 2;
  std::string snapshot_dir;

  /// Tokens per training step (the sequence is seq_len + 1 ids). Must
  /// satisfy the balance divisibility rules for the cluster's world size.
  std::int64_t seq_len = 32;

  /// Give up (rethrow the last failure) after this many recoveries.
  int max_recoveries = 8;
  /// After a device crash, continue on the surviving ranks with the
  /// largest feasible smaller world size instead of restarting the full
  /// one. Changes gradient summation order, so recovered weights are no
  /// longer bitwise comparable to the fault-free run.
  bool remap_on_failure = false;
};

struct RecoveryEvent {
  std::uint64_t failed_step = 0;       // step being executed when it failed
  std::uint64_t resumed_from_step = 0; // snapshot step restored
  int lost_steps = 0;                  // committed work thrown away
  int failed_rank = -1;                // root-cause rank, -1 if unknown
  std::string cause;                   // what() of the root-cause exception
  /// Stable burst::Error code of the root cause ("injected_fault",
  /// "comm_corruption", ...; "unknown" for untyped exceptions).
  std::string cause_code = "unknown";
  double detect_latency_s = 0.0;       // Failure::detect_latency_s
  double restore_time_s = 0.0;         // modeled snapshot read time
};

struct ResilienceReport {
  int steps_completed = 0;
  int recoveries = 0;
  int snapshots_taken = 0;
  /// World size training ended on (smaller than it started if remapped).
  int final_world_size = 0;
  std::vector<RecoveryEvent> events;
  /// Total virtual time: committed steps + failed attempts + snapshot I/O.
  double virtual_time_s = 0.0;
  /// Failed attempts, replayed steps, and restore I/O.
  double wasted_virtual_time_s = 0.0;
  /// Snapshot save time (the steady-state overhead of the interval knob).
  double snapshot_io_time_s = 0.0;
  double final_loss = 0.0;
  std::vector<double> losses;  // per committed step
  model::ModelWeights final_weights;
};

/// Deterministic synthetic training stream: token t+1 = (3t + 7) mod vocab
/// with 10% noise, drawn from `rng` (whose state is what snapshots
/// capture). Returns n + 1 token ids.
tensor::Tensor make_markov_sequence(tensor::Rng& rng, std::int64_t n,
                                    std::int64_t vocab);

/// Largest world size g <= max_g that satisfies the divisibility rules of
/// `cfg` for sequences of `seq_len` tokens (zigzag needs 2g | N, the other
/// balances g | N; head-parallel impls additionally need their head-group
/// size, model::head_group_size(cfg, g), to divide both g and heads).
int feasible_world_size(const model::DistTrainConfig& cfg,
                        std::int64_t seq_len, int max_g);

/// Runs `cfg.total_steps` training steps from `init` under the supervisor,
/// surviving the injected faults in cfg.cluster.faults. Rethrows the last
/// failure if recovery is exhausted or impossible, and non-recoverable ones
/// (OOM, invalid configs) at once. When cfg.cluster.metrics is attached it
/// receives the committed steps' metrics and the supervisor's own:
///   resilience.recoveries{code=<cause_code>}  counter
///   resilience.snapshots_taken                counter
///   resilience.detect_latency_s               histogram
///   resilience.restore_time_s                 histogram
ResilienceReport resilient_train_loop(const ResilienceConfig& cfg,
                                      const model::ModelWeights& init);

/// Packages a finished run as the uniform structured artifact
/// (kind "training", schema burst.run_report). Recovery events become
/// measurements/config entries — a survived fault is success, not an error —
/// and self_check asserts every configured step committed.
obs::RunReport to_run_report(const ResilienceConfig& cfg,
                             const ResilienceReport& rep);

}  // namespace burst::resilience
