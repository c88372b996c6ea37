// Multi-tenant SLO scheduling: weighted-fair share convergence, priority
// ordering, TTFT-deadline preemption, and admission control at the engine
// boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "api/loadgen.hpp"
#include "serve/engine.hpp"
#include "serve/scheduler.hpp"
#include "tensor/rng.hpp"

namespace burst::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

SchedEntry entry(std::int64_t id, RequestState state, std::int64_t tenant,
                 int priority, double weight, std::int64_t generated,
                 double deadline_s) {
  SchedEntry e;
  e.id = id;
  e.state = state;
  e.arrival_s = 0.0;
  e.prompt_len = 16;
  e.prefilled = state == RequestState::kQueued ? 0 : 16;
  e.cache_len = e.prefilled + generated;
  e.generated = generated;
  e.max_new_tokens = 1 << 20;  // effectively endless decode
  e.tenant = tenant;
  e.priority = priority;
  e.weight = weight;
  e.deadline_s = deadline_s;
  return e;
}

// An urgent high-priority prefill reserves urgent_budget_frac of the token
// budget, and exactly the decodes that lost their slot are reported
// preempted.
TEST(SloScheduler, UrgentPrefillPreemptsLowestPriorityDecodes) {
  SchedulerConfig cfg;
  cfg.policy = BatchPolicy::kSlo;
  cfg.token_budget = 4;
  cfg.chunk_tokens = 8;
  cfg.urgency_window_s = 1.0;
  Scheduler sched(cfg);

  std::vector<SchedEntry> entries;
  for (std::int64_t i = 0; i < 4; ++i) {
    entries.push_back(entry(i, RequestState::kDecode, /*tenant=*/0,
                            /*priority=*/0, 1.0, /*generated=*/4, kInf));
  }
  // Deadline 0.5s away, inside the 1s urgency window.
  entries.push_back(entry(4, RequestState::kQueued, /*tenant=*/1,
                          /*priority=*/2, 1.0, 0, /*deadline_s=*/0.5));

  const auto plan = sched.plan(0.0, entries, /*free_blocks=*/1 << 20, 16);
  ASSERT_EQ(plan.prefills.size(), 1u);
  EXPECT_EQ(plan.prefills[0].id, 4);
  EXPECT_EQ(plan.prefills[0].tokens, 2);  // ceil(4 * 0.5) budget reservation
  EXPECT_EQ(plan.decodes.size(), 2u);
  EXPECT_EQ(plan.preempted.size(), 2u);
  EXPECT_EQ(plan.total_tokens(), cfg.token_budget);

  // Same deadline but outside the window: nobody is urgent, decodes keep
  // the whole budget, prefill waits, nothing is preempted.
  entries[4].deadline_s = 5.0;
  const auto calm = sched.plan(0.0, entries, 1 << 20, 16);
  EXPECT_EQ(calm.decodes.size(), 4u);
  EXPECT_TRUE(calm.preempted.empty());
  EXPECT_TRUE(calm.prefills.empty());
}

TEST(SloScheduler, HigherPriorityClassDecodesFirst) {
  SchedulerConfig cfg;
  cfg.policy = BatchPolicy::kSlo;
  cfg.token_budget = 1;
  cfg.chunk_tokens = 8;
  Scheduler sched(cfg);
  // The interactive entry has far MORE service than the batch one; priority
  // still wins before fair-share ordering kicks in.
  const std::vector<SchedEntry> entries = {
      entry(0, RequestState::kDecode, 0, /*priority=*/0, 1.0,
            /*generated=*/1, kInf),
      entry(1, RequestState::kDecode, 1, /*priority=*/2, 1.0,
            /*generated=*/100, kInf),
  };
  const auto plan = sched.plan(0.0, entries, 1 << 20, 16);
  ASSERT_EQ(plan.decodes.size(), 1u);
  EXPECT_EQ(plan.decodes[0], 1);
}

// Two equal-weight tenants decoding forever under a budget of one token per
// iteration: weighted-fair ordering must converge to equal token counts (the
// gap never exceeds one token), regardless of the head start tenant 0 had.
TEST(SloScheduler, EqualWeightSharesConverge) {
  SchedulerConfig cfg;
  cfg.policy = BatchPolicy::kSlo;
  cfg.token_budget = 1;
  cfg.chunk_tokens = 8;
  Scheduler sched(cfg);

  std::vector<SchedEntry> entries = {
      entry(0, RequestState::kDecode, 0, 1, 1.0, /*generated=*/32, kInf),
      entry(1, RequestState::kDecode, 1, 1, 1.0, /*generated=*/0, kInf),
  };
  for (int iter = 0; iter < 200; ++iter) {
    const auto plan = sched.plan(0.0, entries, 1 << 20, 16);
    ASSERT_EQ(plan.decodes.size(), 1u);
    auto& e = entries[static_cast<std::size_t>(plan.decodes[0])];
    e.generated += 1;
    e.cache_len += 1;
  }
  // Tenant 1 must have caught up: 232 tokens total, split 116/116.
  EXPECT_LE(std::abs(entries[0].generated - entries[1].generated), 1);
  const double jain = api::jain_fairness_index(
      {static_cast<double>(entries[0].generated),
       static_cast<double>(entries[1].generated)});
  EXPECT_GT(jain, 0.999);
}

// With weights 3:1 the steady-state token ratio tracks the weights.
TEST(SloScheduler, WeightedSharesTrackWeights) {
  SchedulerConfig cfg;
  cfg.policy = BatchPolicy::kSlo;
  cfg.token_budget = 1;
  cfg.chunk_tokens = 8;
  Scheduler sched(cfg);

  std::vector<SchedEntry> entries = {
      entry(0, RequestState::kDecode, 0, 1, /*weight=*/3.0, 0, kInf),
      entry(1, RequestState::kDecode, 1, 1, /*weight=*/1.0, 0, kInf),
  };
  for (int iter = 0; iter < 400; ++iter) {
    const auto plan = sched.plan(0.0, entries, 1 << 20, 16);
    ASSERT_EQ(plan.decodes.size(), 1u);
    auto& e = entries[static_cast<std::size_t>(plan.decodes[0])];
    e.generated += 1;
    e.cache_len += 1;
  }
  const double ratio = static_cast<double>(entries[0].generated) /
                       static_cast<double>(entries[1].generated);
  EXPECT_NEAR(ratio, 3.0, 0.1);
}

// --- engine integration ----------------------------------------------------

model::ModelConfig serve_toy() {
  model::ModelConfig cfg = model::ModelConfig::toy();
  cfg.kv_heads = 2;
  cfg.use_rope = true;
  return cfg;
}

const model::ModelWeights& toy_weights() {
  static const model::ModelWeights w =
      model::ModelWeights::init(serve_toy(), 73);
  return w;
}

std::vector<std::int64_t> prompt_of(std::uint64_t seed, std::int64_t n) {
  return api::LoadGen::materialize_prompt(seed, n, serve_toy().vocab);
}

// Four batch-priority tenants decoding long outputs saturate the token
// budget; an interactive request with a TTFT target arrives mid-decode.
// kContinuous makes it wait for a budget slot (a background completion);
// kSlo preempts decode budget and rescues its TTFT.
TEST(SloEngine, PreemptionRescuesHighPriorityTtft) {
  const auto run = [&](BatchPolicy policy, double urgency_window_s,
                       bool with_interactive, double arrival_s,
                       double ttft_target_s) {
    EngineConfig ec;
    ec.sched.policy = policy;
    ec.sched.token_budget = 4;
    ec.sched.chunk_tokens = 8;
    ec.sched.urgency_window_s = urgency_window_s;
    ec.block_tokens = 8;
    Engine engine(serve_toy(), toy_weights(), ec);
    for (std::uint64_t i = 0; i < 4; ++i) {
      Request r;
      r.prompt = prompt_of(300 + i, 24);
      r.max_new_tokens = 64;
      r.tenant = 0;
      r.priority = 0;
      engine.add_request(std::move(r));
    }
    if (with_interactive) {
      Request hi;
      hi.prompt = prompt_of(999, 24);
      hi.max_new_tokens = 8;
      hi.arrival_s = arrival_s;
      hi.tenant = 1;
      hi.priority = 2;
      hi.ttft_target_s = ttft_target_s;
      engine.add_request(std::move(hi));
    }
    return run_on_single_device(engine);
  };

  // Calibrate the busy window from a background-only continuous run, then
  // land the interactive request mid-decode. All virtual time: exact on any
  // machine.
  const double makespan =
      run(BatchPolicy::kContinuous, 0.0, false, 0.0, kInf).metrics.makespan_s;
  const double arrival = 0.25 * makespan;

  const auto cont =
      run(BatchPolicy::kContinuous, 0.0, true, arrival, makespan);
  const auto slo = run(BatchPolicy::kSlo, makespan, true, arrival, makespan);

  const auto& cont_hi = cont.results[4];
  const auto& slo_hi = slo.results[4];
  ASSERT_FALSE(cont_hi.rejected());
  ASSERT_FALSE(slo_hi.rejected());
  EXPECT_EQ(cont.metrics.preempted, 0);  // kContinuous never preempts
  EXPECT_GT(slo.metrics.preempted, 0)
      << "expected the SLO run to preempt decode budget";
  // The interactive TTFT improves by at least 2x under preemption.
  EXPECT_LT(slo_hi.ttft_s() * 2.0, cont_hi.ttft_s());
  // Same tokens either way: scheduling changes when, never what.
  EXPECT_EQ(slo_hi.generated, cont_hi.generated);
}

TEST(Admission, QueueDepthBoundShedsBurst) {
  EngineConfig ec;
  ec.sched.policy = BatchPolicy::kContinuous;
  ec.sched.max_waiting = 2;
  ec.block_tokens = 8;
  Engine engine(serve_toy(), toy_weights(), ec);
  for (std::uint64_t i = 0; i < 6; ++i) {
    engine.add_request(prompt_of(500 + i, 24), /*max_new_tokens=*/4);
  }
  const auto rep = run_on_single_device(engine);
  EXPECT_EQ(rep.metrics.admitted, 2);
  EXPECT_EQ(rep.metrics.rejected, 4);
  for (std::size_t i = 0; i < rep.results.size(); ++i) {
    if (i < 2) {
      EXPECT_FALSE(rep.results[i].rejected()) << "request " << i;
      EXPECT_EQ(rep.results[i].generated.size(), 4u);
    } else {
      EXPECT_EQ(rep.results[i].reject_reason, RejectReason::kQueueFull)
          << "request " << i;
    }
  }
}

TEST(Admission, TokenBacklogBoundShedsLargePrompts) {
  EngineConfig ec;
  ec.sched.policy = BatchPolicy::kContinuous;
  ec.sched.max_waiting_tokens = 50;  // two 24-token prompts fit, not three
  ec.block_tokens = 8;
  Engine engine(serve_toy(), toy_weights(), ec);
  for (std::uint64_t i = 0; i < 3; ++i) {
    engine.add_request(prompt_of(600 + i, 24), 4);
  }
  const auto rep = run_on_single_device(engine);
  EXPECT_EQ(rep.metrics.admitted, 2);
  EXPECT_EQ(rep.metrics.rejected, 1);
  EXPECT_EQ(rep.results[2].reject_reason, RejectReason::kQueueTokens);
}

TEST(Admission, ZeroDepthBoundOptsOut) {
  EngineConfig ec;
  ec.sched.policy = BatchPolicy::kContinuous;
  ec.sched.max_waiting = 0;  // explicit opt-out: unbounded queue
  ec.block_tokens = 8;
  Engine engine(serve_toy(), toy_weights(), ec);
  for (std::uint64_t i = 0; i < 6; ++i) {
    engine.add_request(prompt_of(700 + i, 24), 4);
  }
  const auto rep = run_on_single_device(engine);
  EXPECT_EQ(rep.metrics.admitted, 6);
  EXPECT_EQ(rep.metrics.rejected, 0);
}

// Staggered arrivals drain the queue between bursts: the same depth bound
// that sheds a simultaneous burst admits everything when spread out.
TEST(Admission, SpreadArrivalsAllAdmitted) {
  EngineConfig ec;
  ec.sched.policy = BatchPolicy::kContinuous;
  ec.sched.max_waiting = 2;
  ec.block_tokens = 8;
  Engine engine(serve_toy(), toy_weights(), ec);
  for (std::uint64_t i = 0; i < 6; ++i) {
    engine.add_request(prompt_of(800 + i, 24), 4,
                       /*arrival_s=*/0.1 * static_cast<double>(i));
  }
  const auto rep = run_on_single_device(engine);
  EXPECT_EQ(rep.metrics.admitted, 6);
  EXPECT_EQ(rep.metrics.rejected, 0);
}

// --- kSlo edge cases --------------------------------------------------------

// The urgency predicate is inclusive: a deadline landing *exactly* at
// now + urgency_window_s preempts, one ulp past it does not.
TEST(SloScheduler, UrgencyWindowBoundaryIsInclusive) {
  SchedulerConfig cfg;
  cfg.policy = BatchPolicy::kSlo;
  cfg.token_budget = 4;
  cfg.chunk_tokens = 8;
  cfg.urgency_window_s = 1.0;
  Scheduler sched(cfg);

  const double now = 2.0;
  std::vector<SchedEntry> entries;
  for (std::int64_t i = 0; i < 4; ++i) {
    entries.push_back(entry(i, RequestState::kDecode, 0, 0, 1.0, 4, kInf));
  }
  entries.push_back(entry(4, RequestState::kQueued, 1, 2, 1.0, 0,
                          /*deadline_s=*/now + cfg.urgency_window_s));

  const auto at_boundary = sched.plan(now, entries, 1 << 20, 16);
  ASSERT_EQ(at_boundary.prefills.size(), 1u);
  EXPECT_EQ(at_boundary.prefills[0].id, 4);
  EXPECT_FALSE(at_boundary.preempted.empty());

  entries[4].deadline_s =
      std::nextafter(now + cfg.urgency_window_s, kInf);
  const auto past_boundary = sched.plan(now, entries, 1 << 20, 16);
  EXPECT_TRUE(past_boundary.prefills.empty());
  EXPECT_TRUE(past_boundary.preempted.empty());
  EXPECT_EQ(past_boundary.decodes.size(), 4u);
}

// A weight table longer than the set of tenants actually present (and a
// tenant id beyond the table, which defaults to weight 1.0) must not
// perturb scheduling or crash indexing.
TEST(SloEngine, TenantWeightsLongerThanTenantTable) {
  EngineConfig ec;
  ec.sched.policy = BatchPolicy::kSlo;
  ec.sched.token_budget = 32;
  ec.block_tokens = 8;
  ec.tenant_weights = {2.0, 3.0, 5.0, 7.0, 11.0};  // only tenants 0/1 exist
  Engine engine(serve_toy(), toy_weights(), ec);
  for (std::int64_t t : {0, 1, 7}) {  // 7 is past the table: weight 1.0
    Request r;
    r.prompt = prompt_of(850 + static_cast<std::uint64_t>(t), 16);
    r.max_new_tokens = 4;
    r.tenant = t;
    engine.add_request(std::move(r));
  }
  const auto rep = run_on_single_device(engine);
  EXPECT_EQ(rep.metrics.admitted, 3);
  for (const auto& r : rep.results) {
    EXPECT_EQ(r.outcome, Outcome::kCompleted);
    EXPECT_EQ(r.generated.size(), 4u);
  }
}

// Admission races a block-pool release: B and C arrive while A owns the
// whole pool. B takes the single waiting slot; C is rejected kQueueFull at
// the same iteration boundary — even though A's completion frees the pool
// and drains B soon after. A later D sees the drained queue and is
// admitted: admission verdicts are instantaneous snapshots, never
// retroactive.
TEST(Admission, RejectionRacesBlockPoolRelease) {
  EngineConfig ec;
  ec.sched.policy = BatchPolicy::kContinuous;
  ec.sched.max_waiting = 1;
  ec.block_tokens = 8;
  ec.max_kv_blocks = 4;  // exactly A's footprint
  const auto solo_finish = [&] {
    Engine solo(serve_toy(), toy_weights(), ec);
    solo.add_request(prompt_of(860, 24), 6);  // 30 tokens -> 4 blocks
    return run_on_single_device(solo).results[0].finish_s;
  }();
  ASSERT_GT(solo_finish, 0.0);

  Engine engine(serve_toy(), toy_weights(), ec);
  engine.add_request(prompt_of(860, 24), 6);                    // A
  engine.add_request(prompt_of(861, 8), 2, /*arrival_s=*/1e-9); // B
  engine.add_request(prompt_of(862, 8), 2, /*arrival_s=*/2e-9); // C
  engine.add_request(prompt_of(863, 8), 2, 1.5 * solo_finish);  // D

  const auto rep = run_on_single_device(engine);
  EXPECT_EQ(rep.results[0].outcome, Outcome::kCompleted);
  EXPECT_EQ(rep.results[1].outcome, Outcome::kCompleted);
  EXPECT_EQ(rep.results[2].outcome, Outcome::kRejected);
  EXPECT_EQ(rep.results[2].reject_reason, RejectReason::kQueueFull);
  EXPECT_EQ(rep.results[3].outcome, Outcome::kCompleted);
  EXPECT_EQ(rep.metrics.admitted, 3);
  EXPECT_EQ(rep.metrics.rejected, 1);
}

}  // namespace
}  // namespace burst::serve
