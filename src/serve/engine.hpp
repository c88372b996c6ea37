// Continuous-batching inference engine over one simulated device.
//
// Each iteration: ask the Scheduler for a mixed batch of prefill chunks and
// decode steps, run the *functional* model forward for every item (chunked
// prefill via the blocked flash kernel, decode via the append-one-query
// path), then charge the device's virtual clock with a roofline iteration
// cost:
//
//   iter_time = weight_bytes / hbm_bytes_per_s  +  batch FLOPs / flops_per_s
//
// The first term is the decode bottleneck on real hardware — the whole
// parameter set streams from HBM once per iteration *regardless of batch
// size* — and is exactly why continuous batching beats run-to-completion
// FCFS: the stream is amortized over every token in the batch. The second
// term uses the attention FLOPs the kernels actually executed (after mask
// skipping) plus the analytic GEMM counts.
//
// KV blocks are acquired from a KvBlockPool before any cache growth and
// released when a request completes (eviction), so peak KV bytes show up on
// the device MemoryTracker, and a TraceRecorder (when attached) gets one
// interval per iteration labeled with its batch composition.
// burst-lint: allow-file(no-direct-cluster) the serving engine runs inside one simulated rank and exposes cluster-hosting entry points
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "kernels/mask.hpp"
#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "model/quant_weights.hpp"
#include "model/transformer.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"

namespace burst::serve {

struct EngineConfig {
  SchedulerConfig sched;
  /// KV-cache paging granularity (tokens per block).
  std::int64_t block_tokens = 16;
  /// KV memory budget, in blocks. Admission stalls when exhausted; requests
  /// that could never fit (prompt + generation exceeds the whole pool) are
  /// rejected at arrival with RejectReason::kKvInfeasible.
  std::int64_t max_kv_blocks = 1 << 20;
  /// Weighted-fair-queueing weight per tenant id (BatchPolicy::kSlo).
  /// Tenants beyond the vector (or an empty vector) default to weight 1.0.
  std::vector<double> tenant_weights;
  /// Weight-streaming bandwidth for the per-iteration roofline charge.
  double hbm_bytes_per_s = 2e12;
  /// Default per-request wall deadline (virtual seconds from arrival) for
  /// requests that don't carry their own Request::timeout_s. A request still
  /// unfinished past its deadline is cancelled at the next iteration
  /// boundary with Outcome::kTimedOut (HTTP 504) and its KV blocks are
  /// released. Infinity = requests never time out.
  double default_timeout_s = std::numeric_limits<double>::infinity();
  /// Slack past a missed TPOT next-token deadline before the engine degrades
  /// the request to kTimedOut (kSlo + finite Request::tpot_target_s only).
  /// <= 0 picks a default of a few iteration floors, like urgency_window_s.
  double tpot_slack_s = 0.0;
  /// Load-shed mode: when the admitted-but-waiting queue exceeds shed_high
  /// requests at an iteration boundary, waiting work is dropped with
  /// Outcome::kShed (HTTP 503) — lowest priority first, most-over-deadline
  /// first within a class — until the queue is back to shed_low (or
  /// shed_high when shed_low <= 0). 0 disables shedding.
  std::int64_t shed_high = 0;
  std::int64_t shed_low = 0;
  kernels::MaskSpec mask = kernels::MaskSpec::causal();
  /// Optional sink for per-iteration and per-request trace events.
  sim::TraceRecorder* trace = nullptr;
  /// Optional metrics registry. When attached, the engine feeds it directly
  /// (serve.iterations, serve.prefill_tokens, serve.generated_tokens,
  /// serve.token_latency_s, serve.makespan_s, serve.tokens_per_s,
  /// serve.peak_kv_bytes) and the returned ServeMetrics is a view of it; an
  /// engine run with no registry uses a run-local one, so counters reflect
  /// just that run. Reusing one registry across runs accumulates counters.
  obs::Registry* metrics = nullptr;
};

/// Compat view over the serve.* instruments in a registry — the engine's
/// metrics now live there; this struct is how callers always consumed them.
struct ServeMetrics {
  double makespan_s = 0.0;
  std::int64_t iterations = 0;
  std::int64_t prefill_tokens = 0;
  std::int64_t generated_tokens = 0;
  /// Generated tokens per virtual second over the whole run.
  double tokens_per_s = 0.0;
  /// Inter-token decode latency percentiles (excludes time-to-first-token).
  double p50_token_latency_s = 0.0;
  double p99_token_latency_s = 0.0;
  /// Time-to-first-token percentiles over completed requests.
  double p50_ttft_s = 0.0;
  double p99_ttft_s = 0.0;
  /// Admission-control and SLO-preemption tallies.
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t preempted = 0;
  /// Degradation tallies: wall/TPOT deadline cancellations (504), load-shed
  /// drops (503 overloaded), circuit-breaker fast-fails (503 recovering).
  std::int64_t timeouts = 0;
  std::int64_t shed = 0;
  std::int64_t failed_fast = 0;
  /// Peak KV-cache bytes charged to the device tracker.
  std::uint64_t peak_kv_bytes = 0;

  /// Builds the view from a registry's serve.* instruments (interning any
  /// that don't exist yet as zeroes).
  static ServeMetrics from_registry(obs::Registry& reg);
};

struct ServeReport {
  std::vector<RequestResult> results;  // sorted by request id
  ServeMetrics metrics;
};

struct EngineCheckpoint;  // serve/snapshot.hpp

class Engine {
 public:
  /// Knobs for a fault-tolerant run: resume from a checkpoint, and/or emit
  /// one every `checkpoint_every` iterations through `on_checkpoint` (which
  /// may charge virtual snapshot-I/O time on the DeviceContext it receives).
  struct RunOptions {
    const EngineCheckpoint* resume = nullptr;
    std::int64_t checkpoint_every = 0;
    std::function<void(const EngineCheckpoint&, sim::DeviceContext&)>
        on_checkpoint;
  };

  Engine(const model::ModelConfig& model, const model::ModelWeights& weights,
         EngineConfig cfg);

  /// Enqueues a request; returns its id. Call before run().
  std::int64_t add_request(std::vector<std::int64_t> prompt,
                           std::int64_t max_new_tokens, double arrival_s = 0.0);

  /// Full-fat variant: tenant, priority and TTFT target ride along (the API
  /// front door uses this). `r.id` is assigned by the engine.
  std::int64_t add_request(Request r);

  /// Drives every request to completion on `ctx`'s virtual clock. Call from
  /// within Cluster::run on a single-device cluster (the distributed prefill
  /// front-end in serve/dist_prefill.hpp is a separate phase).
  ServeReport run(sim::DeviceContext& ctx);

  /// Fault-tolerant variant. With `opts.resume`, the run restarts from the
  /// checkpointed iteration — committed work (tokens, KV pages, scheduler
  /// state) is restored bitwise, only iterations after the checkpoint
  /// re-execute. Requests must be the same set that produced the checkpoint.
  ServeReport run(sim::DeviceContext& ctx, const RunOptions& opts);

  /// Installs a circuit-breaker window [open_s, close_s): requests
  /// *arriving* inside any window fail fast with Outcome::kFailedFast (HTTP
  /// 503, recovery_in_progress) instead of queueing behind a recovery. The
  /// recovery supervisor (serve/resilience.hpp) installs one window per
  /// crash.
  void add_breaker_window(double open_s, double close_s);

  const EngineConfig& config() const { return cfg_; }

  /// True when model.quant.weights selects the quantized serving path
  /// (kF32/kQ8_0/kQ4_0; kBf16 = dense functional path).
  bool quantized() const { return packed_.quantized(); }
  /// Packed weight bytes at the serving dtype (0 unless quantized()).
  std::uint64_t packed_weight_bytes() const {
    return quantized() ? packed_.model_bytes() : 0;
  }

 private:
  const model::ModelConfig model_;
  const model::ModelWeights& weights_;
  /// The serving weight set, packed once at construction for the
  /// QuantSpec; every prefill, decode and LM-head GEMM streams its panels.
  model::PackedWeights packed_;
  EngineConfig cfg_;
  /// Circuit-breaker windows [open_s, close_s), see add_breaker_window.
  std::vector<std::pair<double, double>> breaker_windows_;
  std::vector<Request> pending_;
};

/// Convenience: builds a one-device cluster at `flops_per_s` and runs the
/// engine on it. `trace`, when given, also receives the cluster's own
/// compute intervals.
ServeReport run_on_single_device(Engine& engine, double flops_per_s = 100e12,
                                 sim::TraceRecorder* trace = nullptr);

}  // namespace burst::serve
