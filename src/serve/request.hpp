// Serving request types: the per-request state machine
// (QUEUED -> PREFILL -> DECODE -> DONE | REJECTED) and its completion
// record.
//
// Arrival, first-token, and finish times all live on the simulated device's
// virtual clock (sim/clock.hpp), so latency percentiles are deterministic
// functions of the workload and the batching policy — not of host load.
//
// Multi-tenant fields (tenant, priority, ttft_target_s) drive the SLO-aware
// scheduler (BatchPolicy::kSlo): requests from the same tenant share one
// weighted-fair queue, higher priority classes are served first, and a
// finite TTFT target makes the scheduler preempt lower-priority decode work
// when the deadline is at risk. They are inert under kFcfs/kContinuous.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace burst::serve {

enum class RequestState {
  kQueued,    // arrived, no cache allocated yet
  kPrefill,   // prompt chunks streaming into the KV-cache
  kDecode,    // autoregressive generation, one token per iteration
  kDone,      // finished; KV blocks evicted
  kRejected,  // shed by admission control at arrival; never ran
  kCancelled,  // terminated early (timeout / load shed / breaker); KV evicted
};

/// The exactly-one terminal outcome every request resolves to — the chaos
/// harness's core invariant. The HTTP mapping is what the API front door
/// delivers (outcome_http_status).
enum class Outcome {
  kPending = 0,  // not yet resolved; only observable mid-run / in checkpoints
  kCompleted,    // full generation delivered                        (200)
  kRejected,     // admission control shed it at arrival             (429)
  kTimedOut,     // missed its virtual-time deadline (wall or TPOT)  (504)
  kShed,         // load-shed mode dropped it under overload         (503)
  kFailedFast,   // circuit breaker open while recovery in progress  (503)
};

const char* outcome_name(Outcome o);

/// HTTP status the API layer reports for an outcome (200 for kCompleted;
/// kPending maps to 500 — a resolved report never contains one).
int outcome_http_status(Outcome o);

/// Why admission control shed a request (RequestResult::reject_reason).
enum class RejectReason {
  kNone = 0,
  kQueueFull,     // waiting-queue depth bound exceeded at arrival
  kQueueTokens,   // waiting prompt-token backlog bound exceeded
  kKvInfeasible,  // prompt + generation can never fit the KV block budget
};

const char* reject_reason_name(RejectReason r);

struct Request {
  std::int64_t id = -1;
  std::vector<std::int64_t> prompt;
  std::int64_t max_new_tokens = 0;
  /// Virtual-clock arrival; the scheduler never admits a request earlier.
  double arrival_s = 0.0;
  /// Tenant index into EngineConfig::tenant_weights (0 = default tenant).
  std::int64_t tenant = 0;
  /// Priority class; higher values are served first under kSlo
  /// (api::Priority maps kBatch=0 < kStandard=1 < kInteractive=2).
  int priority = 1;
  /// Time-to-first-token SLO, relative to arrival. Infinity = no target.
  double ttft_target_s = std::numeric_limits<double>::infinity();
  /// Wall deadline on the virtual clock, relative to arrival: a request
  /// still unfinished once now > arrival_s + timeout_s is cancelled with a
  /// typed 504 (Outcome::kTimedOut) and its KV blocks are released.
  /// Infinity defers to EngineConfig::default_timeout_s.
  double timeout_s = std::numeric_limits<double>::infinity();
  /// Decode-time per-token SLO (kSlo only): the next token is due at
  /// last_token_time + tpot_target_s. Urgent decodes jump the fair-share
  /// queue, and a request whose next-token deadline is hopelessly missed is
  /// degraded to Outcome::kTimedOut. Infinity = no target.
  double tpot_target_s = std::numeric_limits<double>::infinity();
};

/// Completion record for one request.
struct RequestResult {
  std::int64_t id = -1;
  std::int64_t tenant = 0;
  std::vector<std::int64_t> generated;
  double arrival_s = 0.0;
  double first_token_s = 0.0;  // end of the iteration that finished prefill
  double finish_s = 0.0;
  /// Virtual completion time of each generated token (first entry is the
  /// prefill-produced token, so diffs give inter-token latencies).
  std::vector<double> token_times_s;
  /// Admission-control outcome: a rejected request generated nothing and
  /// its first_token_s/finish_s stay negative.
  RejectReason reject_reason = RejectReason::kNone;
  /// The single terminal outcome this request resolved to. For kTimedOut the
  /// tokens generated before cancellation remain in `generated` and finish_s
  /// is the cancellation time.
  Outcome outcome = Outcome::kPending;

  bool rejected() const { return reject_reason != RejectReason::kNone; }
  bool completed() const { return outcome == Outcome::kCompleted; }
  /// Time to first token; meaningless (negative) for rejected requests.
  double ttft_s() const { return first_token_s - arrival_s; }
  /// Mean time per output token after the first; 0 with fewer than 2 tokens.
  double tpot_s() const {
    const auto n = static_cast<std::int64_t>(token_times_s.size());
    return n > 1 ? (finish_s - first_token_s) / static_cast<double>(n - 1)
                 : 0.0;
  }
};

}  // namespace burst::serve
