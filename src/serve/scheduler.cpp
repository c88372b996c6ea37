#include "serve/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "model/kv_cache.hpp"

namespace burst::serve {

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kPending:
      return "pending";
    case Outcome::kCompleted:
      return "completed";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kTimedOut:
      return "timed_out";
    case Outcome::kShed:
      return "shed";
    case Outcome::kFailedFast:
      return "failed_fast";
  }
  return "?";
}

int outcome_http_status(Outcome o) {
  switch (o) {
    case Outcome::kCompleted:
      return 200;
    case Outcome::kRejected:
      return 429;
    case Outcome::kTimedOut:
      return 504;
    case Outcome::kShed:
    case Outcome::kFailedFast:
      return 503;
    case Outcome::kPending:
      break;
  }
  return 500;
}

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kQueueTokens:
      return "queue_tokens";
    case RejectReason::kKvInfeasible:
      return "kv_infeasible";
  }
  return "?";
}

std::int64_t IterationPlan::total_tokens() const {
  std::int64_t t = static_cast<std::int64_t>(decodes.size());
  for (const auto& p : prefills) {
    t += p.tokens;
  }
  return t;
}

namespace {

// New blocks a request needs to grow its cache from `len` to `len + extra`.
std::int64_t growth_blocks(std::int64_t len, std::int64_t extra,
                           std::int64_t block_tokens) {
  return model::SequenceKvCache::blocks_for(len + extra, block_tokens) -
         model::SequenceKvCache::blocks_for(len, block_tokens);
}

bool wants_prefill(const SchedEntry& e, double now_s) {
  return e.state == RequestState::kPrefill ||
         (e.state == RequestState::kQueued && e.arrival_s <= now_s);
}

}  // namespace

IterationPlan Scheduler::plan(double now_s,
                              const std::vector<SchedEntry>& entries,
                              std::int64_t free_blocks,
                              std::int64_t block_tokens) const {
  IterationPlan plan;
  std::int64_t budget = cfg_.token_budget;
  assert(budget > 0 && cfg_.chunk_tokens > 0);

  if (cfg_.policy == BatchPolicy::kSlo) {
    return plan_slo(now_s, entries, free_blocks, block_tokens);
  }

  if (cfg_.policy == BatchPolicy::kFcfs) {
    // One request at a time, strictly in arrival order: the first entry that
    // is running, else the first queued arrival.
    for (const auto& e : entries) {
      if (e.state == RequestState::kDone ||
          e.state == RequestState::kRejected ||
          e.state == RequestState::kCancelled) {
        continue;
      }
      if (e.state == RequestState::kDecode) {
        if (growth_blocks(e.cache_len, 1, block_tokens) <= free_blocks) {
          plan.decodes.push_back(e.id);
        }
        return plan;
      }
      if (wants_prefill(e, now_s)) {
        const std::int64_t t =
            std::min({cfg_.chunk_tokens, e.prompt_len - e.prefilled, budget});
        if (growth_blocks(e.cache_len, t, block_tokens) <= free_blocks) {
          plan.prefills.push_back({e.id, t});
        }
        return plan;
      }
      // Queued but not yet arrived: FCFS never skips ahead of it.
      return plan;
    }
    return plan;
  }

  // Continuous batching: every running decode first (each is one token and
  // at most one new block), then admit/advance prefills with what is left.
  for (const auto& e : entries) {
    if (budget == 0) {
      return plan;
    }
    if (e.state == RequestState::kDecode) {
      const std::int64_t need = growth_blocks(e.cache_len, 1, block_tokens);
      if (need <= free_blocks) {
        plan.decodes.push_back(e.id);
        free_blocks -= need;
        --budget;
      }
    }
  }
  for (const auto& e : entries) {
    if (budget == 0) {
      return plan;
    }
    if (!wants_prefill(e, now_s)) {
      continue;
    }
    const std::int64_t t =
        std::min({cfg_.chunk_tokens, e.prompt_len - e.prefilled, budget});
    const std::int64_t need = growth_blocks(e.cache_len, t, block_tokens);
    if (need > free_blocks) {
      // Defer, and don't let later arrivals jump the memory queue.
      return plan;
    }
    plan.prefills.push_back({e.id, t});
    free_blocks -= need;
    budget -= t;
  }
  return plan;
}

// SLO-aware multi-tenant plan. Three phases under one token budget:
//
//   1. Urgent prefills — TTFT deadline within urgency_window_s — reserve
//      budget first, ordered by (priority desc, deadline asc). They may take
//      at most half of the budget (kUrgentBudgetFrac) while decodes want the
//      rest (the whole budget otherwise); what they take is what preempts.
//   2. Decodes, ordered by (priority desc, weighted-fair share asc). Ones
//      that lose their slot to phase 1 are reported as preempted.
//   3. Remaining budget to non-urgent prefills in the same weighted-fair
//      order, so waiting tenants with the least service start first.
//
// A tenant's share is generated tokens / weight, aggregated over every entry
// (including finished ones) — all state the engine already exposes, keeping
// plan() a pure function.
IterationPlan Scheduler::plan_slo(double now_s,
                                  const std::vector<SchedEntry>& entries,
                                  std::int64_t free_blocks,
                                  std::int64_t block_tokens) const {
  IterationPlan plan;
  std::int64_t budget = cfg_.token_budget;
  assert(budget > 0 && cfg_.chunk_tokens > 0);

  // Weighted-fair share per tenant: generated tokens / weight.
  std::map<std::int64_t, double> served;
  std::map<std::int64_t, double> weight;
  for (const auto& e : entries) {
    served[e.tenant] += static_cast<double>(e.generated);
    weight[e.tenant] = e.weight > 0.0 ? e.weight : 1.0;
  }
  const auto share = [&](const SchedEntry& e) {
    return served[e.tenant] / weight[e.tenant];
  };

  std::vector<const SchedEntry*> decodes;
  std::vector<const SchedEntry*> urgent;
  std::vector<const SchedEntry*> waiting;
  for (const auto& e : entries) {
    if (e.state == RequestState::kDecode) {
      decodes.push_back(&e);
    } else if (wants_prefill(e, now_s)) {
      const bool is_urgent = std::isfinite(e.deadline_s) &&
                             e.deadline_s - now_s <= cfg_.urgency_window_s;
      (is_urgent ? urgent : waiting).push_back(&e);
    }
  }

  const auto by_priority_deadline = [&](const SchedEntry* a,
                                        const SchedEntry* b) {
    if (a->priority != b->priority) {
      return a->priority > b->priority;
    }
    if (a->deadline_s != b->deadline_s) {
      return a->deadline_s < b->deadline_s;
    }
    return a->id < b->id;
  };
  const auto by_priority_share = [&](const SchedEntry* a,
                                     const SchedEntry* b) {
    if (a->priority != b->priority) {
      return a->priority > b->priority;
    }
    const double sa = share(*a);
    const double sb = share(*b);
    if (sa != sb) {
      return sa < sb;
    }
    if (a->arrival_s != b->arrival_s) {
      return a->arrival_s < b->arrival_s;
    }
    return a->id < b->id;
  };
  // Decode order adds TPOT urgency within a priority class: a decode whose
  // next-token deadline falls inside the urgency window is served before
  // non-urgent peers (earliest deadline first); fair share orders the rest.
  const auto tpot_urgent = [&](const SchedEntry& e) {
    return std::isfinite(e.tpot_deadline_s) &&
           e.tpot_deadline_s - now_s <= cfg_.urgency_window_s;
  };
  const auto by_decode_order = [&](const SchedEntry* a, const SchedEntry* b) {
    if (a->priority != b->priority) {
      return a->priority > b->priority;
    }
    const bool ua = tpot_urgent(*a);
    const bool ub = tpot_urgent(*b);
    if (ua != ub) {
      return ua;
    }
    if (ua && a->tpot_deadline_s != b->tpot_deadline_s) {
      return a->tpot_deadline_s < b->tpot_deadline_s;
    }
    return by_priority_share(a, b);
  };
  std::sort(urgent.begin(), urgent.end(), by_priority_deadline);
  std::sort(decodes.begin(), decodes.end(), by_decode_order);
  std::sort(waiting.begin(), waiting.end(), by_priority_share);

  // Phase 1: urgent prefills reserve budget ahead of decodes. While decodes
  // are running they may take at most half of it (the whole budget when no
  // decode wants it), so TTFT rescue cannot starve TPOT entirely.
  constexpr double kUrgentBudgetFrac = 0.5;
  std::int64_t urgent_cap = budget;
  if (!decodes.empty()) {
    urgent_cap = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(budget) * kUrgentBudgetFrac));
  }
  std::int64_t urgent_spent = 0;
  for (const SchedEntry* e : urgent) {
    const std::int64_t t = std::min({cfg_.chunk_tokens,
                                     e->prompt_len - e->prefilled,
                                     urgent_cap - urgent_spent, budget});
    if (t <= 0) {
      continue;
    }
    const std::int64_t need = growth_blocks(e->cache_len, t, block_tokens);
    if (need > free_blocks) {
      continue;  // blocks will free as decodes complete; retry next iteration
    }
    plan.prefills.push_back({e->id, t});
    free_blocks -= need;
    budget -= t;
    urgent_spent += t;
  }

  // Phase 2: decodes in (priority, weighted-fair) order. A decode that
  // would fit its KV growth but finds the budget consumed by phase 1 was
  // preempted for someone else's TTFT.
  for (const SchedEntry* e : decodes) {
    const std::int64_t need = growth_blocks(e->cache_len, 1, block_tokens);
    if (need > free_blocks) {
      continue;
    }
    if (budget == 0) {
      if (urgent_spent > 0) {
        plan.preempted.push_back(e->id);
      }
      continue;
    }
    plan.decodes.push_back(e->id);
    free_blocks -= need;
    --budget;
  }

  // Phase 3: leftover budget admits/advances waiting prefills fairly.
  for (const SchedEntry* e : waiting) {
    if (budget == 0) {
      break;
    }
    const std::int64_t t =
        std::min({cfg_.chunk_tokens, e->prompt_len - e->prefilled, budget});
    const std::int64_t need = growth_blocks(e->cache_len, t, block_tokens);
    if (need > free_blocks) {
      continue;  // unlike kContinuous, fairness order already protects FIFO
    }
    plan.prefills.push_back({e->id, t});
    free_blocks -= need;
    budget -= t;
  }
  return plan;
}

}  // namespace burst::serve
