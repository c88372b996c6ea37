#include "serve/engine.hpp"
// burst-lint: allow-file(no-direct-cluster) hosting boundary: serve_once constructs the cluster the engine runs on

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "model/block.hpp"
#include "obs/metrics.hpp"
#include "serve/errors.hpp"
#include "serve/kv_cache.hpp"
#include "serve/snapshot.hpp"
#include "tensor/gemm.hpp"

namespace burst::serve {

using model::ModelConfig;
using model::SequenceKvCache;
using tensor::Tensor;

namespace {

// Bytes streamed from simulated HBM per iteration: every weight once.
std::uint64_t weight_stream_bytes(const ModelConfig& m) {
  const std::uint64_t d = static_cast<std::uint64_t>(m.d_model);
  const std::uint64_t per_layer =
      2 * d * d + 2 * d * static_cast<std::uint64_t>(m.d_kv()) +
      2 * d * static_cast<std::uint64_t>(m.d_ff);
  const std::uint64_t els = static_cast<std::uint64_t>(m.layers) * per_layer +
                            2 * static_cast<std::uint64_t>(m.vocab) * d;
  // Weights stream at the serving dtype: a Q8_0/Q4_0 QuantSpec shrinks the
  // roofline's bandwidth term by 1.8x / 3.2x vs bf16.
  return static_cast<std::uint64_t>(static_cast<double>(els) *
                                    m.weight_bytes_per_el());
}

}  // namespace

ServeMetrics ServeMetrics::from_registry(obs::Registry& reg) {
  ServeMetrics m;
  m.iterations =
      static_cast<std::int64_t>(reg.counter("serve.iterations").value());
  m.prefill_tokens =
      static_cast<std::int64_t>(reg.counter("serve.prefill_tokens").value());
  m.generated_tokens =
      static_cast<std::int64_t>(reg.counter("serve.generated_tokens").value());
  m.admitted = static_cast<std::int64_t>(reg.counter("serve.admitted").value());
  m.rejected = static_cast<std::int64_t>(reg.counter("serve.rejected").value());
  m.preempted =
      static_cast<std::int64_t>(reg.counter("serve.preempted").value());
  m.timeouts = static_cast<std::int64_t>(reg.counter("serve.timeouts").value());
  m.shed = static_cast<std::int64_t>(reg.counter("serve.shed").value());
  m.failed_fast =
      static_cast<std::int64_t>(reg.counter("serve.breaker_rejects").value());
  m.makespan_s = reg.gauge("serve.makespan_s").value();
  m.tokens_per_s = reg.gauge("serve.tokens_per_s").value();
  m.peak_kv_bytes =
      static_cast<std::uint64_t>(reg.gauge("serve.peak_kv_bytes").value());
  const obs::Histogram& lat = reg.histogram("serve.token_latency_s");
  m.p50_token_latency_s = lat.percentile(0.50);
  m.p99_token_latency_s = lat.percentile(0.99);
  const obs::Histogram& ttft = reg.histogram("serve.ttft_s");
  m.p50_ttft_s = ttft.percentile(0.50);
  m.p99_ttft_s = ttft.percentile(0.99);
  return m;
}

struct EngineSlot {
  Request req;
  RequestState state = RequestState::kQueued;
  Outcome outcome = Outcome::kPending;
  SequenceKvCache cache;
  std::int64_t prefilled = 0;
  std::int64_t blocks_held = 0;
  std::vector<std::int64_t> generated;
  std::vector<double> token_times;
  double first_token_s = -1.0;
  double finish_s = -1.0;
  /// Absolute wall deadline (arrival + request timeout, engine default when
  /// the request carries none); infinity when neither is set.
  double deadline_s = std::numeric_limits<double>::infinity();
  bool admission_checked = false;
  RejectReason reject_reason = RejectReason::kNone;
};

Engine::Engine(const ModelConfig& model, const model::ModelWeights& weights,
               EngineConfig cfg)
    : model_(model),
      weights_(weights),
      packed_(model::PackedWeights::pack(model_, weights_)),
      cfg_(std::move(cfg)) {
  if (cfg_.block_tokens <= 0 || cfg_.max_kv_blocks <= 0) {
    throw std::invalid_argument("EngineConfig: block/pool sizes must be > 0");
  }
}

std::int64_t Engine::add_request(std::vector<std::int64_t> prompt,
                                 std::int64_t max_new_tokens,
                                 double arrival_s) {
  Request r;
  r.prompt = std::move(prompt);
  r.max_new_tokens = max_new_tokens;
  r.arrival_s = arrival_s;
  return add_request(std::move(r));
}

std::int64_t Engine::add_request(Request r) {
  if (r.prompt.empty() || r.max_new_tokens < 1) {
    throw std::invalid_argument(
        "add_request: need a non-empty prompt and max_new_tokens >= 1");
  }
  if (r.tenant < 0) {
    throw std::invalid_argument("add_request: tenant id must be >= 0");
  }
  if (std::any_of(r.prompt.begin(), r.prompt.end(), [this](std::int64_t t) {
        return t < 0 || t >= model_.vocab;
      })) {
    throw std::invalid_argument(
        "add_request: prompt token id outside [0, vocab)");
  }
  r.id = static_cast<std::int64_t>(pending_.size());
  pending_.push_back(std::move(r));
  return pending_.back().id;
}

void Engine::add_breaker_window(double open_s, double close_s) {
  breaker_windows_.emplace_back(open_s, close_s);
}

ServeReport Engine::run(sim::DeviceContext& ctx) {
  return run(ctx, RunOptions{});
}

ServeReport Engine::run(sim::DeviceContext& ctx, const RunOptions& opts) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  KvBlockPool pool(ctx.mem(),
                   SequenceKvCache::block_bytes(model_, cfg_.block_tokens),
                   cfg_.max_kv_blocks);
  // GEMM FLOPs of one token through the block the functional transformer
  // runs (not the gated analytic count perfmodel uses for paper-scale
  // estimates), and of one row of logits.
  const std::uint64_t lin_per_tok =
      static_cast<std::uint64_t>(model_.layers) * model::block_flops(model_, 1);
  const std::uint64_t head_per_row = model::head_flops(model_, 1);
  const double weight_s =
      static_cast<double>(weight_stream_bytes(model_)) / cfg_.hbm_bytes_per_s;

  SchedulerConfig sched_cfg = cfg_.sched;
  if (sched_cfg.policy == BatchPolicy::kSlo &&
      sched_cfg.urgency_window_s <= 0.0) {
    // Default urgency horizon: a few iteration floors (the weight stream is
    // the fixed per-iteration cost) — "this deadline is at most a handful of
    // iterations away" is when preempting decode budget can still save it.
    sched_cfg.urgency_window_s = 4.0 * weight_s;
  }
  Scheduler sched(sched_cfg);
  // Same default for TPOT degradation slack: a missed next-token deadline is
  // hopeless once no handful of iterations can recover it.
  const double tpot_slack =
      cfg_.tpot_slack_s > 0.0 ? cfg_.tpot_slack_s : 4.0 * weight_s;

  std::vector<EngineSlot> slots;
  slots.reserve(pending_.size());
  for (const auto& r : pending_) {
    EngineSlot s;
    s.req = r;
    const double timeout =
        std::isfinite(r.timeout_s) ? r.timeout_s : cfg_.default_timeout_s;
    s.deadline_s = std::isfinite(timeout) ? r.arrival_s + timeout : kInf;
    slots.push_back(std::move(s));
  }
  // Scheduler contract: entries sorted by (arrival, id).
  std::vector<std::size_t> order(slots.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (slots[a].req.arrival_s != slots[b].req.arrival_s) {
      return slots[a].req.arrival_s < slots[b].req.arrival_s;
    }
    return slots[a].req.id < slots[b].req.id;
  });

  // The registry is the source of truth for run metrics; ServeMetrics is
  // built as a view of it at the end. Runs with no attached registry count
  // into a run-local one so the returned metrics cover exactly this run.
  // All tallies live in run state and publish only when the run *finishes* —
  // a run that dies on an injected fault publishes nothing, so a recovery
  // supervisor can re-run against the same registry without double counting.
  obs::Registry local_reg;
  obs::Registry& reg = cfg_.metrics != nullptr ? *cfg_.metrics : local_reg;

  std::int64_t iteration = 0;
  std::int64_t preempted_total = 0;

  if (opts.resume != nullptr) {
    const EngineCheckpoint& ck = *opts.resume;
    if (ck.slots.size() != slots.size()) {
      throw SchedulerInvariantError(
          "checkpoint has " + std::to_string(ck.slots.size()) +
          " slots, engine has " + std::to_string(slots.size()));
    }
    iteration = ck.iteration;
    preempted_total = ck.preempted;
    const std::int64_t streams = model_.layers * model_.num_kv_heads();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EngineSlot& s = slots[i];
      const EngineCheckpoint::Slot& cs = ck.slots[i];
      s.state = static_cast<RequestState>(cs.state);
      s.outcome = static_cast<Outcome>(cs.outcome);
      s.reject_reason = static_cast<RejectReason>(cs.reject_reason);
      s.admission_checked = cs.admission_checked;
      s.prefilled = cs.prefilled;
      s.first_token_s = cs.first_token_s;
      s.finish_s = cs.finish_s;
      s.generated = cs.generated;
      s.token_times = cs.token_times;
      if (cs.blocks_held > 0) {
        if (static_cast<std::int64_t>(cs.k.size()) != streams ||
            cs.v.size() != cs.k.size()) {
          throw SchedulerInvariantError(
              "checkpoint KV streams mismatch for request " +
              std::to_string(s.req.id));
        }
        if (!pool.try_acquire(cs.blocks_held,
                              "kv:req" + std::to_string(s.req.id))) {
          throw SchedulerInvariantError(
              "checkpoint KV blocks exceed the pool for request " +
              std::to_string(s.req.id));
        }
        s.blocks_held = cs.blocks_held;
        s.cache = SequenceKvCache::create(model_, cfg_.block_tokens);
        s.cache.reserve(cs.blocks_held * cfg_.block_tokens);
        if (cs.cache_len > 0) {
          for (std::int64_t l = 0; l < model_.layers; ++l) {
            for (std::int64_t h = 0; h < model_.num_kv_heads(); ++h) {
              const std::int64_t idx = l * model_.num_kv_heads() + h;
              s.cache.put_at(l, h, 0, cs.k[static_cast<std::size_t>(idx)],
                             cs.v[static_cast<std::size_t>(idx)]);
            }
          }
          s.cache.commit(cs.cache_len);
        }
      }
    }
    // A standalone resume starts its clock at the checkpoint; a recovery
    // supervisor has already advanced it past the failure + restore time.
    if (ctx.clock().now(sim::kCompute) < ck.time_s) {
      ctx.clock().advance_to(sim::kCompute, ck.time_s);
    }
  }

  const auto tenant_weight = [&](std::int64_t tenant) {
    const auto t = static_cast<std::size_t>(tenant);
    return t < cfg_.tenant_weights.size() && cfg_.tenant_weights[t] > 0.0
               ? cfg_.tenant_weights[t]
               : 1.0;
  };

  const auto is_terminal = [](const EngineSlot& s) {
    return s.state == RequestState::kDone ||
           s.state == RequestState::kRejected ||
           s.state == RequestState::kCancelled;
  };

  const auto in_breaker = [&](double t) {
    for (const auto& w : breaker_windows_) {
      if (t >= w.first && t < w.second) {
        return true;
      }
    }
    return false;
  };

  // Terminates a live request with a degradation outcome: its KV pages go
  // back to the pool, any tokens already generated stay (the API layer
  // replays partial streams before the typed error event).
  const auto cancel = [&](EngineSlot& s, Outcome outcome, double now) {
    if (s.blocks_held > 0) {
      pool.release(s.blocks_held);
      s.blocks_held = 0;
    }
    s.cache = SequenceKvCache();
    s.state = RequestState::kCancelled;
    s.outcome = outcome;
    s.finish_s = now;
  };

  // Admission control, evaluated once per request when its arrival time is
  // reached: requests that can never fit the KV pool, or that land on a
  // full waiting queue (depth or prompt-token backlog), are shed with a
  // typed reason instead of growing the queue without bound. Arrivals inside
  // a circuit-breaker window fail fast before any admission math.
  const auto process_arrivals = [&](double now) {
    std::int64_t waiting = 0;
    std::int64_t waiting_tokens = 0;
    for (const auto& s : slots) {
      if (s.state == RequestState::kQueued && s.admission_checked) {
        ++waiting;
        waiting_tokens += static_cast<std::int64_t>(s.req.prompt.size());
      }
    }
    for (std::size_t i : order) {
      EngineSlot& s = slots[i];
      if (s.state != RequestState::kQueued || s.admission_checked ||
          s.req.arrival_s > now) {
        continue;
      }
      s.admission_checked = true;
      if (in_breaker(s.req.arrival_s)) {
        s.state = RequestState::kCancelled;
        s.outcome = Outcome::kFailedFast;
        s.finish_s = s.req.arrival_s;
        continue;
      }
      const auto prompt_len = static_cast<std::int64_t>(s.req.prompt.size());
      RejectReason reason = RejectReason::kNone;
      if (SequenceKvCache::blocks_for(prompt_len + s.req.max_new_tokens,
                                      cfg_.block_tokens) >
          cfg_.max_kv_blocks) {
        reason = RejectReason::kKvInfeasible;
      } else if (cfg_.sched.max_waiting > 0 &&
                 waiting >= cfg_.sched.max_waiting) {
        reason = RejectReason::kQueueFull;
      } else if (cfg_.sched.max_waiting_tokens > 0 &&
                 waiting_tokens + prompt_len > cfg_.sched.max_waiting_tokens) {
        reason = RejectReason::kQueueTokens;
      }
      if (reason != RejectReason::kNone) {
        s.state = RequestState::kRejected;
        s.reject_reason = reason;
        s.outcome = Outcome::kRejected;
        continue;
      }
      ++waiting;
      waiting_tokens += prompt_len;
    }
  };

  // Graceful degradation, part 1: wall-deadline and hopeless-TPOT requests
  // become typed 504s at the next iteration boundary instead of occupying
  // KV pages and batch budget they can no longer convert into useful work.
  const auto cancel_overdue = [&](double now) {
    for (auto& s : slots) {
      if (is_terminal(s) || !s.admission_checked) {
        continue;
      }
      if (now > s.deadline_s) {
        cancel(s, Outcome::kTimedOut, now);
        continue;
      }
      if (s.state == RequestState::kDecode &&
          std::isfinite(s.req.tpot_target_s) && !s.token_times.empty() &&
          now > s.token_times.back() + s.req.tpot_target_s + tpot_slack) {
        cancel(s, Outcome::kTimedOut, now);
      }
    }
  };

  // Graceful degradation, part 2: load shedding. When the admitted waiting
  // queue overflows shed_high, drop lowest-priority work first — and within
  // a priority class the most-over-deadline request — down to shed_low.
  const auto shed_overload = [&](double now) {
    if (cfg_.shed_high <= 0) {
      return;
    }
    std::vector<std::size_t> waiting;
    for (std::size_t i : order) {
      const EngineSlot& s = slots[i];
      if (s.state == RequestState::kQueued && s.admission_checked) {
        waiting.push_back(i);
      }
    }
    if (static_cast<std::int64_t>(waiting.size()) <= cfg_.shed_high) {
      return;
    }
    const std::int64_t target =
        cfg_.shed_low > 0 ? cfg_.shed_low : cfg_.shed_high;
    const auto shed_key = [&](std::size_t i) {
      const EngineSlot& s = slots[i];
      const double ttft_deadline = s.req.arrival_s + s.req.ttft_target_s;
      return std::min(ttft_deadline, s.deadline_s);
    };
    std::sort(waiting.begin(), waiting.end(),
              [&](std::size_t a, std::size_t b) {
                if (slots[a].req.priority != slots[b].req.priority) {
                  return slots[a].req.priority < slots[b].req.priority;
                }
                const double da = shed_key(a);
                const double db = shed_key(b);
                if (da != db) {
                  return da < db;
                }
                return slots[a].req.id < slots[b].req.id;
              });
    const std::size_t drop =
        waiting.size() - static_cast<std::size_t>(target);
    for (std::size_t j = 0; j < drop; ++j) {
      cancel(slots[waiting[j]], Outcome::kShed, now);
    }
  };

  const auto all_done = [&] {
    for (const auto& s : slots) {
      if (!is_terminal(s)) {
        return false;
      }
    }
    return true;
  };

  while (!all_done()) {
    const double now = ctx.clock().now(sim::kCompute);
    process_arrivals(now);
    cancel_overdue(now);
    shed_overload(now);
    if (all_done()) {
      break;  // the last arrivals may all have been shed or cancelled
    }

    std::vector<SchedEntry> entries;
    entries.reserve(slots.size());
    for (std::size_t i : order) {
      const EngineSlot& s = slots[i];
      SchedEntry e;
      e.id = s.req.id;
      e.state = s.state;
      e.arrival_s = s.req.arrival_s;
      e.prompt_len = static_cast<std::int64_t>(s.req.prompt.size());
      e.prefilled = s.prefilled;
      e.cache_len = s.cache.len();
      e.generated = static_cast<std::int64_t>(s.generated.size());
      e.max_new_tokens = s.req.max_new_tokens;
      e.tenant = s.req.tenant;
      e.priority = s.req.priority;
      e.weight = tenant_weight(s.req.tenant);
      e.deadline_s = s.req.arrival_s + s.req.ttft_target_s;
      e.tpot_deadline_s =
          s.state == RequestState::kDecode &&
                  std::isfinite(s.req.tpot_target_s) && !s.token_times.empty()
              ? s.token_times.back() + s.req.tpot_target_s
              : kInf;
      entries.push_back(e);
    }

    const IterationPlan plan =
        sched.plan(now, entries, pool.free_blocks(), cfg_.block_tokens);
    preempted_total += static_cast<std::int64_t>(plan.preempted.size());

    if (plan.empty()) {
      // Nothing runnable now: jump to the next event — an arrival, or a
      // deadline whose expiry frees wedged KV pages — or report a stall
      // (every non-done request is wedged on KV blocks and nothing will
      // ever unwedge it: a budget too small to ever fit a single request).
      double next = std::numeric_limits<double>::infinity();
      for (const auto& s : slots) {
        if (s.state == RequestState::kQueued && s.req.arrival_s > now) {
          next = std::min(next, s.req.arrival_s);
        }
        if (!is_terminal(s) && s.admission_checked &&
            std::isfinite(s.deadline_s)) {
          // Cancellation fires strictly past the deadline.
          next = std::min(next, std::nextafter(s.deadline_s, kInf));
        }
      }
      if (!std::isfinite(next)) {
        reg.counter(obs::labeled(
                        "serve.errors",
                        {{"code", error_code_name(ErrorCode::kEngineStalled)}}))
            .add(1);
        throw EngineStalledError(
            "no runnable work and no future arrivals "
            "(KV block budget too small for a single request?)");
      }
      ctx.clock().advance_to(sim::kCompute, next);
      continue;
    }

    kernels::KernelStats stats;
    std::uint64_t lin_flops = 0;
    std::vector<EngineSlot*> produced;  // one generated token each

    const auto grow_cache = [&](EngineSlot& s, std::int64_t tokens) {
      const std::int64_t need =
          SequenceKvCache::blocks_for(s.cache.len() + tokens,
                                      cfg_.block_tokens) -
          s.cache.blocks_allocated();
      if (need > 0) {
        if (!pool.try_acquire(need,
                              "kv:req" + std::to_string(s.req.id))) {
          reg.counter(
                 obs::labeled("serve.errors",
                              {{"code", error_code_name(
                                            ErrorCode::kSchedulerInvariant)}}))
              .add(1);
          throw SchedulerInvariantError(
              "scheduler planned work exceeding the KV pool");
        }
        s.blocks_held += need;
      }
      const std::int64_t got = s.cache.reserve(tokens);
      assert(got == need);
      (void)got;
    };

    for (const auto& p : plan.prefills) {
      EngineSlot& s = slots[static_cast<std::size_t>(p.id)];
      if (s.state == RequestState::kQueued) {
        s.state = RequestState::kPrefill;
        s.cache = SequenceKvCache::create(model_, cfg_.block_tokens);
      }
      assert(s.state == RequestState::kPrefill);
      grow_cache(s, p.tokens);
      const Tensor hidden = model::forward_prefill_chunk(
          model_, weights_, packed_, s.cache,
          s.req.prompt.data() + s.prefilled, p.tokens, cfg_.mask, &stats);
      s.prefilled += p.tokens;
      lin_flops += static_cast<std::uint64_t>(p.tokens) * lin_per_tok;
      if (s.prefilled == static_cast<std::int64_t>(s.req.prompt.size())) {
        // Prefill done: the last prompt row's logits give the first token.
        const Tensor last_row = hidden.copy_rows(p.tokens - 1, 1);
        const Tensor logits = model::head_logits(packed_, last_row);
        lin_flops += head_per_row;
        s.generated.push_back(model::argmax(model::logits_row(logits, 0)));
        produced.push_back(&s);
        s.state = RequestState::kDecode;
      }
    }

    if (!plan.decodes.empty()) {
      // One batched forward for every decoding request: each weight streams
      // once per iteration, which is what the roofline below charges.
      std::vector<EngineSlot*> decoding;
      std::vector<SequenceKvCache*> caches;
      std::vector<std::int64_t> tokens;
      for (const std::int64_t id : plan.decodes) {
        EngineSlot& s = slots[static_cast<std::size_t>(id)];
        assert(s.state == RequestState::kDecode && !s.generated.empty());
        grow_cache(s, 1);
        decoding.push_back(&s);
        caches.push_back(&s.cache);
        tokens.push_back(s.generated.back());
      }
      const Tensor logits = model::forward_decode(
          model_, weights_, packed_, caches, tokens, cfg_.mask, &stats);
      lin_flops += static_cast<std::uint64_t>(decoding.size()) *
                   (lin_per_tok + head_per_row);
      for (std::size_t b = 0; b < decoding.size(); ++b) {
        EngineSlot& s = *decoding[b];
        s.generated.push_back(model::argmax(
            model::logits_row(logits, static_cast<std::int64_t>(b))));
        produced.push_back(&s);
      }
    }

    const double iter_begin = ctx.clock().now(sim::kCompute);
    ctx.busy(weight_s, sim::kCompute, "serve:weights");
    ctx.compute(static_cast<double>(lin_flops + stats.flops), sim::kCompute,
                "serve:batch");
    const double end = ctx.clock().now(sim::kCompute);

    for (EngineSlot* s : produced) {
      if (s->first_token_s < 0.0) {
        s->first_token_s = end;
      }
      // TPOT degradation is checked when the token lands, not only at the
      // loop top: a continuously-scheduled request refreshes token_times
      // every iteration, so a hopeless per-token SLO (tighter than the
      // iteration floor) is only ever visible as the gap between this token
      // and the previous one.
      const bool tpot_late =
          std::isfinite(s->req.tpot_target_s) && !s->token_times.empty() &&
          end > s->token_times.back() + s->req.tpot_target_s + tpot_slack;
      s->token_times.push_back(end);
      if (tpot_late) {
        cancel(*s, Outcome::kTimedOut, end);
        continue;
      }
      if (static_cast<std::int64_t>(s->generated.size()) ==
          s->req.max_new_tokens) {
        // Completion: evict — all KV blocks return to the pool.
        s->state = RequestState::kDone;
        s->outcome = Outcome::kCompleted;
        s->finish_s = end;
        pool.release(s->blocks_held);
        s->blocks_held = 0;
        s->cache = SequenceKvCache();
      }
    }

    if (cfg_.trace != nullptr) {
      cfg_.trace->record(
          ctx.rank(), sim::kCompute,
          "serve:iter p=" + std::to_string(plan.prefills.size()) + " d=" +
              std::to_string(plan.decodes.size()) + " tok=" +
              std::to_string(plan.total_tokens()),
          iter_begin, end);
    }
    ++iteration;

    if (opts.checkpoint_every > 0 && opts.on_checkpoint &&
        iteration % opts.checkpoint_every == 0 && !all_done()) {
      EngineCheckpoint ck;
      ck.iteration = iteration;
      ck.time_s = end;
      ck.preempted = preempted_total;
      ck.slots.reserve(slots.size());
      for (const auto& s : slots) {
        EngineCheckpoint::Slot cs;
        cs.state = static_cast<std::uint32_t>(s.state);
        cs.outcome = static_cast<std::uint32_t>(s.outcome);
        cs.reject_reason = static_cast<std::uint32_t>(s.reject_reason);
        cs.admission_checked = s.admission_checked;
        cs.prefilled = s.prefilled;
        cs.blocks_held = s.blocks_held;
        cs.first_token_s = s.first_token_s;
        cs.finish_s = s.finish_s;
        cs.generated = s.generated;
        cs.token_times = s.token_times;
        cs.cache_len = s.cache.len();
        if (s.blocks_held > 0) {
          for (std::int64_t l = 0; l < model_.layers; ++l) {
            for (std::int64_t h = 0; h < model_.num_kv_heads(); ++h) {
              const tensor::ConstMatView kv = s.cache.k_view(l, h, cs.cache_len);
              const tensor::ConstMatView vv = s.cache.v_view(l, h, cs.cache_len);
              Tensor kt(kv.rows, kv.cols);
              Tensor vt(vv.rows, vv.cols);
              for (std::int64_t rr = 0; rr < kv.rows; ++rr) {
                for (std::int64_t cc = 0; cc < kv.cols; ++cc) {
                  kt(rr, cc) = kv(rr, cc);
                  vt(rr, cc) = vv(rr, cc);
                }
              }
              cs.k.push_back(std::move(kt));
              cs.v.push_back(std::move(vt));
            }
          }
        }
        ck.slots.push_back(std::move(cs));
      }
      opts.on_checkpoint(ck, ctx);
    }
  }

  // Publication: every tally and histogram lands in the registry only now,
  // at successful completion — derived from final slot state, so a resumed
  // run counts each logical token and request exactly once.
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t timeouts = 0;
  std::int64_t shed_count = 0;
  std::int64_t failed_fast = 0;
  std::int64_t prefill_sum = 0;
  std::int64_t generated_sum = 0;
  std::map<Outcome, std::int64_t> by_outcome;
  obs::Histogram& h_token_latency = reg.histogram("serve.token_latency_s");
  obs::Histogram& h_ttft = reg.histogram("serve.ttft_s");
  obs::Histogram& h_tpot = reg.histogram("serve.tpot_s");
  for (const auto& s : slots) {
    prefill_sum += s.prefilled;
    generated_sum += static_cast<std::int64_t>(s.generated.size());
    ++by_outcome[s.outcome];
    switch (s.outcome) {
      case Outcome::kRejected:
        ++rejected;
        reg.counter(obs::labeled(
                        "serve.rejected",
                        {{"reason", reject_reason_name(s.reject_reason)}}))
            .add(1);
        break;
      case Outcome::kFailedFast:
        ++failed_fast;
        break;
      case Outcome::kTimedOut:
        ++timeouts;
        ++admitted;
        break;
      case Outcome::kShed:
        ++shed_count;
        ++admitted;
        break;
      case Outcome::kCompleted:
        ++admitted;
        break;
      case Outcome::kPending:
        break;
    }
    if (!s.token_times.empty()) {
      h_ttft.observe(s.token_times.front() - s.req.arrival_s);
      for (std::size_t j = 1; j < s.token_times.size(); ++j) {
        h_token_latency.observe(s.token_times[j] - s.token_times[j - 1]);
      }
    }
    if (s.outcome == Outcome::kCompleted && s.token_times.size() > 1) {
      h_tpot.observe((s.finish_s - s.first_token_s) /
                     static_cast<double>(s.token_times.size() - 1));
    }
  }
  reg.counter("serve.iterations").add(static_cast<std::uint64_t>(iteration));
  reg.counter("serve.prefill_tokens")
      .add(static_cast<std::uint64_t>(prefill_sum));
  obs::Counter& c_generated = reg.counter("serve.generated_tokens");
  c_generated.add(static_cast<std::uint64_t>(generated_sum));
  reg.counter("serve.admitted").add(static_cast<std::uint64_t>(admitted));
  reg.counter("serve.rejected").add(static_cast<std::uint64_t>(rejected));
  reg.counter("serve.preempted")
      .add(static_cast<std::uint64_t>(preempted_total));
  reg.counter("serve.timeouts").add(static_cast<std::uint64_t>(timeouts));
  reg.counter("serve.shed").add(static_cast<std::uint64_t>(shed_count));
  reg.counter("serve.breaker_rejects")
      .add(static_cast<std::uint64_t>(failed_fast));
  for (const auto& [outcome, n] : by_outcome) {
    reg.counter(
           obs::labeled("serve.outcomes", {{"outcome", outcome_name(outcome)}}))
        .add(static_cast<std::uint64_t>(n));
  }

  const double makespan = ctx.clock().elapsed();
  reg.gauge("serve.makespan_s").set(makespan);
  reg.gauge("serve.tokens_per_s")
      .set(makespan > 0.0
               ? static_cast<double>(c_generated.value()) / makespan
               : 0.0);
  reg.gauge("serve.peak_kv_bytes").set(static_cast<double>(ctx.mem().peak()));

  ServeReport rep;
  rep.metrics = ServeMetrics::from_registry(reg);
  for (const auto& s : slots) {
    RequestResult r;
    r.id = s.req.id;
    r.tenant = s.req.tenant;
    r.generated = s.generated;
    r.arrival_s = s.req.arrival_s;
    r.first_token_s = s.first_token_s;
    r.finish_s = s.finish_s;
    r.token_times_s = s.token_times;
    r.reject_reason = s.reject_reason;
    r.outcome = s.outcome;
    rep.results.push_back(std::move(r));
  }
  std::sort(rep.results.begin(), rep.results.end(),
            [](const RequestResult& a, const RequestResult& b) {
              return a.id < b.id;
            });
  return rep;
}

ServeReport run_on_single_device(Engine& engine, double flops_per_s,
                                 sim::TraceRecorder* trace) {
  sim::Cluster::Config cc;
  cc.topo = sim::Topology::single_node(1);
  cc.flops_per_s = flops_per_s;
  cc.trace = trace;
  sim::Cluster cluster(cc);
  ServeReport rep;
  cluster.run([&](sim::DeviceContext& ctx) { rep = engine.run(ctx); });
  return rep;
}

}  // namespace burst::serve
