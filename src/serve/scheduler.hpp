// Iteration-level batching policies for the serving engine.
//
// Each engine iteration runs one fused model pass over a mixed batch of
// work items; the scheduler decides what goes into it, under a per-iteration
// token budget and the KV block pool's free-block count:
//
//  * kFcfs       — strict run-to-completion, one request at a time in
//                  arrival order: chunked prefill, then one decode token per
//                  iteration until done. The classic static baseline — every
//                  decode iteration streams the full weights for a single
//                  token.
//  * kContinuous — continuous batching (Orca/vLLM-style): every running
//                  request contributes its next decode token each iteration,
//                  and leftover budget admits/advances prefill chunks of
//                  queued requests, so weight streaming is amortized over
//                  the whole batch.
//  * kSlo        — multi-tenant SLO-aware batching on top of kContinuous:
//                  requests carry a tenant, a priority class and a TTFT
//                  deadline. Work is ordered by (priority, weighted-fair
//                  share) where a tenant's share is its generated tokens
//                  divided by its weight — so equal-weight tenants converge
//                  to equal token goodput — and prefills whose TTFT deadline
//                  falls inside `urgency_window_s` jump the queue, preempting
//                  (skipping) the lowest-priority decodes for the iteration.
//                  Preempted ids are reported in the plan so the engine can
//                  count them.
//
// The scheduler is a pure function of (now, entries, free_blocks): the
// engine owns all mutable state, which keeps policies trivially testable.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "serve/request.hpp"

namespace burst::serve {

enum class BatchPolicy {
  kFcfs,
  kContinuous,
  kSlo,
};

struct SchedulerConfig {
  BatchPolicy policy = BatchPolicy::kContinuous;
  /// Max forward rows (prefill tokens + decode tokens) per iteration.
  std::int64_t token_budget = 256;
  /// Max prompt tokens one request prefills per iteration.
  std::int64_t chunk_tokens = 64;
  /// Admission control (enforced by the engine at arrival, every policy):
  /// max requests sitting in the waiting queue before new arrivals are shed
  /// with a typed kAdmissionRejected error. <= 0 means unbounded (opt-out).
  std::int64_t max_waiting = 1024;
  /// Optional admission bound on the waiting prompt-token backlog (sum of
  /// un-prefilled prompt tokens of admitted-but-not-started requests).
  /// <= 0 disables the bound.
  std::int64_t max_waiting_tokens = 0;
  /// kSlo only: a prefill whose TTFT deadline is within this window of `now`
  /// becomes urgent and may preempt decode budget. <= 0 lets the engine pick
  /// a default of a few iteration times.
  double urgency_window_s = 0.0;
};

/// Scheduler-visible snapshot of one request (engine owns the full state).
struct SchedEntry {
  std::int64_t id = -1;
  RequestState state = RequestState::kQueued;
  double arrival_s = 0.0;
  std::int64_t prompt_len = 0;
  std::int64_t prefilled = 0;   // prompt tokens already committed to cache
  std::int64_t cache_len = 0;   // committed cache rows (prompt + fed-back)
  std::int64_t generated = 0;
  std::int64_t max_new_tokens = 0;
  // kSlo fields (defaults make kFcfs/kContinuous entries valid).
  std::int64_t tenant = 0;
  int priority = 1;
  double weight = 1.0;  // tenant weight (engine resolves the tenant table)
  /// Absolute TTFT deadline (arrival_s + ttft_target_s); +inf when none.
  double deadline_s = 0.0;
  /// Absolute deadline of the *next* decode token (last token time +
  /// tpot_target_s); +inf when the request carries no TPOT SLO. kSlo serves
  /// TPOT-urgent decodes (deadline within urgency_window_s) first within a
  /// priority class, ordered by deadline.
  double tpot_deadline_s = std::numeric_limits<double>::infinity();
};

/// One iteration's work: prefill chunks and single-token decode steps.
struct IterationPlan {
  struct Prefill {
    std::int64_t id = -1;
    std::int64_t tokens = 0;
  };
  std::vector<Prefill> prefills;
  std::vector<std::int64_t> decodes;  // request ids, one token each
  /// kSlo: decode-ready requests skipped this iteration because urgent
  /// prefills took their token budget (TTFT-SLO preemption).
  std::vector<std::int64_t> preempted;

  std::int64_t total_tokens() const;
  bool empty() const { return prefills.empty() && decodes.empty(); }
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig cfg) : cfg_(cfg) {}

  const SchedulerConfig& config() const { return cfg_; }

  /// Plans the next iteration. `entries` must be sorted by (arrival_s, id);
  /// `free_blocks` / `block_tokens` bound KV growth — work whose new blocks
  /// don't fit is deferred, never partially admitted. Done/rejected entries
  /// are skipped for work but still feed per-tenant fairness accounting.
  IterationPlan plan(double now_s, const std::vector<SchedEntry>& entries,
                     std::int64_t free_blocks,
                     std::int64_t block_tokens) const;

 private:
  IterationPlan plan_slo(double now_s, const std::vector<SchedEntry>& entries,
                         std::int64_t free_blocks,
                         std::int64_t block_tokens) const;

  SchedulerConfig cfg_;
};

}  // namespace burst::serve
