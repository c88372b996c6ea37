// Continuous-batching serving engine: scheduler policies, throughput vs the
// FCFS baseline, KV eviction, arrival handling, and metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/transformer.hpp"
#include "serve/engine.hpp"
#include "serve/scheduler.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"
#include "tensor/rng.hpp"

namespace burst::serve {
namespace {

using model::ModelConfig;
using model::ModelWeights;

ModelConfig serve_toy() {
  ModelConfig cfg = ModelConfig::toy();
  cfg.kv_heads = 2;
  cfg.use_rope = true;
  return cfg;
}

SchedEntry entry(std::int64_t id, RequestState state, double arrival,
                 std::int64_t prompt_len, std::int64_t prefilled,
                 std::int64_t generated, std::int64_t max_new) {
  SchedEntry e;
  e.id = id;
  e.state = state;
  e.arrival_s = arrival;
  e.prompt_len = prompt_len;
  e.prefilled = prefilled;
  e.cache_len = prefilled + generated;  // good enough for block arithmetic
  e.generated = generated;
  e.max_new_tokens = max_new;
  return e;
}

std::vector<std::int64_t> prompt_of(std::uint64_t seed, std::int64_t n,
                                    std::int64_t vocab) {
  tensor::Rng rng(seed);
  std::vector<std::int64_t> p(static_cast<std::size_t>(n));
  for (auto& t : p) {
    t = rng.next_index(vocab);
  }
  return p;
}

TEST(Scheduler, FcfsRunsOneRequestToCompletion) {
  Scheduler sched({BatchPolicy::kFcfs, /*token_budget=*/64,
                   /*chunk_tokens=*/16});
  // Request 0 mid-prefill, request 1 waiting: only 0 advances.
  const std::vector<SchedEntry> entries = {
      entry(0, RequestState::kPrefill, 0.0, 40, 16, 0, 4),
      entry(1, RequestState::kQueued, 0.0, 8, 0, 0, 4),
  };
  const auto plan = sched.plan(0.0, entries, /*free_blocks=*/100, 16);
  ASSERT_EQ(plan.prefills.size(), 1u);
  EXPECT_EQ(plan.prefills[0].id, 0);
  EXPECT_EQ(plan.prefills[0].tokens, 16);  // one chunk, not the rest
  EXPECT_TRUE(plan.decodes.empty());

  // Once 0 decodes, it still owns the engine: one decode token, no prefill.
  const std::vector<SchedEntry> decoding = {
      entry(0, RequestState::kDecode, 0.0, 40, 40, 1, 4),
      entry(1, RequestState::kQueued, 0.0, 8, 0, 0, 4),
  };
  const auto plan2 = sched.plan(0.0, decoding, 100, 16);
  EXPECT_TRUE(plan2.prefills.empty());
  ASSERT_EQ(plan2.decodes.size(), 1u);
  EXPECT_EQ(plan2.decodes[0], 0);
}

TEST(Scheduler, FcfsWaitsForArrival) {
  Scheduler sched({BatchPolicy::kFcfs, 64, 16});
  const std::vector<SchedEntry> entries = {
      entry(0, RequestState::kQueued, 5.0, 8, 0, 0, 4),
      entry(1, RequestState::kQueued, 9.0, 8, 0, 0, 4),
  };
  EXPECT_TRUE(sched.plan(1.0, entries, 100, 16).empty());
  const auto plan = sched.plan(6.0, entries, 100, 16);
  ASSERT_EQ(plan.prefills.size(), 1u);
  EXPECT_EQ(plan.prefills[0].id, 0);
}

TEST(Scheduler, ContinuousMixesDecodesAndPrefills) {
  Scheduler sched({BatchPolicy::kContinuous, /*token_budget=*/20,
                   /*chunk_tokens=*/8});
  const std::vector<SchedEntry> entries = {
      entry(0, RequestState::kDecode, 0.0, 16, 16, 2, 8),
      entry(1, RequestState::kDecode, 0.0, 16, 16, 1, 8),
      entry(2, RequestState::kQueued, 0.0, 30, 0, 0, 8),
  };
  const auto plan = sched.plan(0.0, entries, /*free_blocks=*/100, 16);
  EXPECT_EQ(plan.decodes.size(), 2u);  // every running request decodes
  ASSERT_EQ(plan.prefills.size(), 1u);
  EXPECT_EQ(plan.prefills[0].id, 2);
  EXPECT_EQ(plan.prefills[0].tokens, 8);  // one chunk of the new request
  EXPECT_EQ(plan.total_tokens(), 10);
}

TEST(Scheduler, ContinuousRespectsTokenBudget) {
  Scheduler sched({BatchPolicy::kContinuous, /*token_budget=*/2,
                   /*chunk_tokens=*/8});
  const std::vector<SchedEntry> entries = {
      entry(0, RequestState::kDecode, 0.0, 8, 8, 1, 8),
      entry(1, RequestState::kDecode, 0.0, 8, 8, 1, 8),
      entry(2, RequestState::kDecode, 0.0, 8, 8, 1, 8),
  };
  const auto plan = sched.plan(0.0, entries, 100, 16);
  EXPECT_EQ(plan.decodes.size(), 2u);
  EXPECT_TRUE(plan.prefills.empty());
}

TEST(Scheduler, ContinuousDefersPrefillWithoutFreeBlocks) {
  Scheduler sched({BatchPolicy::kContinuous, 64, 16});
  const std::vector<SchedEntry> entries = {
      // Decode token fits in the already-allocated block (cache_len 17 of
      // two 16-token blocks).
      entry(0, RequestState::kDecode, 0.0, 16, 16, 1, 8),
      entry(1, RequestState::kQueued, 0.0, 16, 0, 0, 8),
  };
  const auto plan = sched.plan(0.0, entries, /*free_blocks=*/0, 16);
  EXPECT_EQ(plan.decodes.size(), 1u);
  EXPECT_TRUE(plan.prefills.empty());  // needs a block it cannot get
}

// --- engine integration ----------------------------------------------------

struct RunSpec {
  BatchPolicy policy = BatchPolicy::kContinuous;
  std::int64_t max_kv_blocks = 1 << 20;
  double arrival_step = 0.0;
  sim::TraceRecorder* trace = nullptr;
};

ServeReport run_engine(const RunSpec& spec) {
  const ModelConfig cfg = serve_toy();
  static const ModelWeights w = ModelWeights::init(serve_toy(), 73);
  EngineConfig ec;
  ec.sched.policy = spec.policy;
  ec.sched.token_budget = 64;
  ec.sched.chunk_tokens = 16;
  ec.block_tokens = 8;
  ec.max_kv_blocks = spec.max_kv_blocks;
  ec.trace = spec.trace;
  Engine engine(cfg, w, ec);
  for (int i = 0; i < 6; ++i) {
    engine.add_request(prompt_of(100 + static_cast<std::uint64_t>(i), 24,
                                 cfg.vocab),
                       /*max_new_tokens=*/8,
                       /*arrival_s=*/spec.arrival_step * i);
  }
  return run_on_single_device(engine);
}

// The acceptance criterion: at an equal KV budget, continuous batching
// yields strictly higher throughput than FCFS (weight streaming amortized
// over the batch), while generating the *same* tokens.
TEST(ServeEngine, ContinuousBeatsFcfsAtEqualMemory) {
  RunSpec fcfs_spec;
  fcfs_spec.policy = BatchPolicy::kFcfs;
  fcfs_spec.max_kv_blocks = 64;
  RunSpec cont_spec = fcfs_spec;
  cont_spec.policy = BatchPolicy::kContinuous;

  const ServeReport fcfs = run_engine(fcfs_spec);
  const ServeReport cont = run_engine(cont_spec);

  EXPECT_GT(cont.metrics.tokens_per_s, fcfs.metrics.tokens_per_s);
  EXPECT_LT(cont.metrics.makespan_s, fcfs.metrics.makespan_s);
  ASSERT_EQ(fcfs.results.size(), cont.results.size());
  for (std::size_t i = 0; i < fcfs.results.size(); ++i) {
    EXPECT_EQ(fcfs.results[i].generated, cont.results[i].generated)
        << "request " << i;
  }
  // Same block budget; both peaks observed and within it.
  const std::uint64_t cap =
      64 * model::SequenceKvCache::block_bytes(serve_toy(), 8);
  EXPECT_GT(fcfs.metrics.peak_kv_bytes, 0u);
  EXPECT_LE(fcfs.metrics.peak_kv_bytes, cap);
  EXPECT_LE(cont.metrics.peak_kv_bytes, cap);
}

TEST(ServeEngine, CompletionEvictsEveryBlock) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 73);
  EngineConfig ec;
  ec.block_tokens = 8;
  Engine engine(cfg, w, ec);
  engine.add_request(prompt_of(7, 24, cfg.vocab), 8);
  engine.add_request(prompt_of(8, 16, cfg.vocab), 4);

  sim::Cluster cluster({sim::Topology::single_node(1)});
  cluster.run([&](sim::DeviceContext& ctx) {
    engine.run(ctx);
    EXPECT_EQ(ctx.mem().used(), 0u);  // all KV blocks released
    EXPECT_GT(ctx.mem().peak(), 0u);
  });
}

TEST(ServeEngine, ArrivalTimesGateFirstTokens) {
  RunSpec spec;
  spec.arrival_step = 0.5;  // request i arrives at 0.5 * i virtual seconds
  const ServeReport rep = run_engine(spec);
  for (std::size_t i = 0; i < rep.results.size(); ++i) {
    const auto& r = rep.results[i];
    EXPECT_GE(r.first_token_s, r.arrival_s) << "request " << i;
    EXPECT_GE(r.finish_s, r.first_token_s);
    EXPECT_EQ(r.token_times_s.size(), 8u);
  }
}

TEST(ServeEngine, MetricsAreConsistent) {
  const ServeReport rep = run_engine(RunSpec{});
  EXPECT_EQ(rep.metrics.generated_tokens, 6 * 8);
  EXPECT_EQ(rep.metrics.prefill_tokens, 6 * 24);
  EXPECT_GT(rep.metrics.iterations, 0);
  EXPECT_GT(rep.metrics.tokens_per_s, 0.0);
  EXPECT_LE(rep.metrics.p50_token_latency_s, rep.metrics.p99_token_latency_s);
  EXPECT_GT(rep.metrics.p50_token_latency_s, 0.0);
}

TEST(ServeEngine, TraceRecordsIterationBatches) {
  sim::TraceRecorder trace;
  RunSpec spec;
  spec.trace = &trace;
  const ServeReport rep = run_engine(spec);
  std::int64_t iters = 0;
  for (const auto& e : trace.events()) {
    if (e.name.rfind("serve:iter", 0) == 0) {
      ++iters;
      EXPECT_LE(e.begin_s, e.end_s);
    }
  }
  EXPECT_EQ(iters, rep.metrics.iterations);
}

// Batched decode serves every request, whatever its context length, exactly
// as greedy decoding over the one-shot full forward: ten concurrent decoders
// with prompt lengths 5..23 share each decode forward.
TEST(ServeEngine, EveryRequestMatchesSerialGreedyChain) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 79);
  sim::TraceRecorder trace;
  EngineConfig ec;
  ec.sched.policy = BatchPolicy::kContinuous;
  ec.sched.token_budget = 256;
  ec.sched.chunk_tokens = 32;
  ec.block_tokens = 8;
  ec.trace = &trace;
  Engine engine(cfg, w, ec);
  constexpr std::int64_t kRequests = 10;
  constexpr std::int64_t kNewTokens = 12;
  std::vector<std::vector<std::int64_t>> prompts;
  for (std::int64_t i = 0; i < kRequests; ++i) {
    prompts.push_back(prompt_of(200 + static_cast<std::uint64_t>(i), 5 + 2 * i,
                                cfg.vocab));
    engine.add_request(prompts.back(), kNewTokens);
  }
  const ServeReport rep = run_on_single_device(engine);

  std::size_t max_decodes = 0;
  for (const auto& e : trace.events()) {
    const auto d = e.name.find(" d=");
    if (e.name.rfind("serve:iter", 0) == 0 && d != std::string::npos) {
      max_decodes = std::max(max_decodes,
                             static_cast<std::size_t>(std::stoul(
                                 e.name.substr(d + 3))));
    }
  }
  EXPECT_GE(max_decodes, 8u);

  ASSERT_EQ(rep.results.size(), static_cast<std::size_t>(kRequests));
  for (const auto& r : rep.results) {
    ASSERT_EQ(r.outcome, Outcome::kCompleted) << "request " << r.id;
    std::vector<std::int64_t> tokens = prompts[static_cast<std::size_t>(r.id)];
    std::vector<std::int64_t> expect;
    for (std::int64_t j = 0; j < kNewTokens; ++j) {
      const auto n = static_cast<std::int64_t>(tokens.size());
      const tensor::Tensor logits = model::serial_forward_logits(
          cfg, w, tokens.data(), n, ec.mask);
      expect.push_back(model::argmax(model::logits_row(logits, n - 1)));
      tokens.push_back(expect.back());
    }
    EXPECT_EQ(r.generated, expect) << "request " << r.id;
  }
}

// A pool too small for even one request used to deadlock-then-throw; the
// admission layer now sheds every request at arrival with a typed reason,
// and the engine finishes cleanly having generated nothing.
TEST(ServeEngine, StarvedPoolRejectsEveryRequest) {
  RunSpec spec;
  spec.max_kv_blocks = 2;  // 16 tokens of KV; prompts are 24
  const ServeReport rep = run_engine(spec);
  EXPECT_EQ(rep.metrics.generated_tokens, 0);
  EXPECT_EQ(rep.metrics.rejected, 6);
  EXPECT_EQ(rep.metrics.admitted, 0);
  for (const auto& r : rep.results) {
    EXPECT_TRUE(r.rejected());
    EXPECT_EQ(r.reject_reason, RejectReason::kKvInfeasible);
    EXPECT_TRUE(r.generated.empty());
    EXPECT_LT(r.first_token_s, 0.0);
  }
}

// Prompt ids index the embedding table, so the engine rejects any id outside
// [0, vocab) at its own entry point instead of reading past w_embed.
TEST(ServeEngine, AddRequestRejectsOutOfVocabToken) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 73);
  Engine engine(cfg, w, EngineConfig{});
  for (const std::int64_t bad : {std::int64_t{-1}, cfg.vocab}) {
    std::vector<std::int64_t> prompt = prompt_of(9, 6, cfg.vocab);
    prompt[3] = bad;
    EXPECT_THROW(engine.add_request(prompt, 4), std::invalid_argument)
        << "token " << bad;
  }
  // A rejected request is not enqueued: the next id is still 0.
  EXPECT_EQ(engine.add_request(prompt_of(9, 6, cfg.vocab), 4), 0);
}

}  // namespace
}  // namespace burst::serve
