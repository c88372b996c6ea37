// Serving resilience: request recovery and graceful degradation under the
// deterministic fault machinery (sim/fault.hpp), two recover steps on the
// shared recovery supervisor (resilience/supervisor.hpp).
//
// serve_with_recovery — Engine::run on one device, checkpointing its run
// state (serve/snapshot.hpp) every N iterations. After a crash it restores
// the newest checkpoint at a modeled restore cost, resumes the device clock
// past the crash, and opens a circuit-breaker window so requests arriving
// mid-recovery fail fast with HTTP 503. Replay is bitwise: the same tokens
// come out, shifted only by the recovery delay.
//
// resilient_distributed_prefill — the sequence-parallel prefill ring. It
// backs off exponentially and, after a crash, shrinks the ring to the
// largest prompt-divisor world below the current one. The retried result is
// bit-identical to a fault-free prefill at the same final world size.
// burst-lint: allow-file(no-direct-cluster) the serving recovery supervisor rebuilds clusters across faults; cluster configs are its input surface
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/mask.hpp"
#include "model/config.hpp"
#include "model/transformer.hpp"
#include "serve/dist_prefill.hpp"
#include "serve/engine.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"

namespace burst::serve {

struct ServeResilienceConfig {
  /// Device compute rate for the one-device serving cluster.
  double flops_per_s = 100e12;
  /// Deterministic fault schedule for the serving device.
  sim::FaultPlan faults{};
  /// Checkpoint cadence in engine iterations; 0 disables checkpoints (a
  /// crash then restarts the run from scratch).
  std::int64_t checkpoint_every = 0;
  /// Durable checkpoint directory (the newest two are retained). Empty =
  /// keep the latest serialized checkpoint in memory only (same bytes, no
  /// filesystem).
  std::string snapshot_dir;
  /// Give up and rethrow after this many recoveries.
  int max_recoveries = 8;
  /// Extra breaker-open time after the restore completes.
  double breaker_cooldown_s = 0.0;
  /// Optional execution-trace sink for the serving cluster.
  sim::TraceRecorder* trace = nullptr;
};

/// One recovery episode: when the device died, what killed it, and where
/// the replay resumed.
struct ServeRecoveryEvent {
  double fail_time_s = 0.0;
  int failed_rank = -1;
  std::string cause_code;  // stable burst::ErrorCode name
  /// Iteration the restored checkpoint resumes from (0 = from scratch).
  std::int64_t resumed_iteration = 0;
  /// Modeled checkpoint-read time charged before replay.
  double restore_s = 0.0;
  /// Virtual time burned: work since the last checkpoint plus the restore.
  double lost_s = 0.0;
};

struct ResilientServeReport {
  ServeReport report;
  std::vector<ServeRecoveryEvent> recoveries;
  /// Checkpoints taken across all attempts, and their total container bytes.
  std::int64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
};

/// Drives `engine` to completion under `cfg.faults`, recovering from every
/// crash until the run finishes or max_recoveries is exhausted (then the
/// last failure is rethrown). A fault-free plan without checkpoints is one
/// plain single-device Engine::run.
ResilientServeReport serve_with_recovery(Engine& engine,
                                         const ServeResilienceConfig& cfg);

struct PrefillRetryConfig {
  /// Attempts before the last failure is rethrown. Each retry first waits
  /// an exponential backoff (1 ms, doubling) charged as wasted virtual time.
  int max_attempts = 4;
};

struct ResilientPrefillResult {
  DistPrefillResult result;
  int attempts = 1;
  /// Ring size that produced the result (shrinks after crashes).
  int final_world = 0;
  /// Virtual time burned in failed attempts and backoff waits.
  double wasted_s = 0.0;
  /// Stable error-code name of each failed attempt, in order.
  std::vector<std::string> failure_codes;
};

/// Distributed prefill with ring-fault retry: fresh cluster per attempt,
/// fault plan advanced past fired entries, world shrunk to the survivors
/// after a crash. Throws the last error when retries are exhausted or the
/// failure is not recoverable.
ResilientPrefillResult resilient_distributed_prefill(
    const sim::Cluster::Config& base, const model::ModelConfig& cfg,
    const model::ModelWeights& w, const std::vector<std::int64_t>& prompt,
    std::int64_t block_tokens,
    const kernels::MaskSpec& mask = kernels::MaskSpec::causal(),
    const PrefillRetryConfig& retry = {});

}  // namespace burst::serve
