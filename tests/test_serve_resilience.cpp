// Serving resilience: checkpoint round-trips (serve/snapshot.hpp),
// bitwise checkpoint/resume replay, crash recovery with circuit-breaker
// fast-fails (serve/resilience.hpp), graceful degradation (timeouts, load
// shedding, TPOT cancellation), and ring-fault retry for distributed
// prefill.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "resilience/snapshot.hpp"
#include "serve/dist_prefill.hpp"
#include "serve/engine.hpp"
#include "serve/errors.hpp"
#include "serve/resilience.hpp"
#include "serve/snapshot.hpp"
#include "sim/cluster.hpp"
#include "tensor/rng.hpp"
#include "temp_dir.hpp"

namespace fs = std::filesystem;

namespace burst::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
  tensor::Rng rng(seed);
  std::vector<std::int64_t> p(static_cast<std::size_t>(n));
  for (auto& t : p) {
    t = rng.next_index(serve_toy().vocab);
  }
  return p;
}

// A small mixed workload: staggered arrivals, several requests in flight at
// once, enough iterations that mid-run checkpoints land in interesting
// states (mid-prefill, mid-decode).
void add_workload(Engine& engine) {
  engine.add_request(prompt_of(901, 24), /*max_new_tokens=*/6, 0.0);
  engine.add_request(prompt_of(902, 16), 8, 0.0);
  engine.add_request(prompt_of(903, 40), 4, 1e-6);
  engine.add_request(prompt_of(904, 8), 10, 2e-6);
}

EngineConfig small_engine_config() {
  EngineConfig ec;
  ec.sched.policy = BatchPolicy::kContinuous;
  ec.sched.token_budget = 32;
  ec.sched.chunk_tokens = 16;
  ec.block_tokens = 8;
  return ec;
}

// --- checkpoint serialization ----------------------------------------------

EngineCheckpoint sample_checkpoint() {
  const model::ModelConfig cfg = serve_toy();
  EngineCheckpoint ck;
  ck.iteration = 7;
  ck.time_s = 0.125;
  ck.preempted = 3;
  ck.slots.resize(2);

  auto& a = ck.slots[0];
  a.state = 2;  // kDecode
  a.outcome = 0;
  a.admission_checked = true;
  a.prefilled = 16;
  a.blocks_held = 3;
  a.first_token_s = 0.01;
  a.generated = {5, 9, 2};
  a.token_times = {0.01, 0.02, 0.03};
  a.cache_len = 19;
  tensor::Rng rng(17);
  const auto streams = cfg.layers * cfg.num_kv_heads();
  for (std::int64_t i = 0; i < streams; ++i) {
    a.k.push_back(rng.gaussian(a.cache_len, cfg.head_dim()));
    a.v.push_back(rng.gaussian(a.cache_len, cfg.head_dim()));
  }

  auto& b = ck.slots[1];
  b.state = 4;  // kRejected
  b.outcome = 2;
  b.reject_reason = 1;
  b.admission_checked = true;
  b.finish_s = 0.0;
  return ck;
}

TEST(ServeSnapshot, PayloadRoundTripIsExact) {
  const EngineCheckpoint ck = sample_checkpoint();
  const auto payload = serialize_checkpoint(ck);
  const EngineCheckpoint back = deserialize_checkpoint(payload);

  EXPECT_EQ(back.iteration, ck.iteration);
  EXPECT_EQ(back.time_s, ck.time_s);
  EXPECT_EQ(back.preempted, ck.preempted);
  ASSERT_EQ(back.slots.size(), ck.slots.size());
  for (std::size_t i = 0; i < ck.slots.size(); ++i) {
    const auto& want = ck.slots[i];
    const auto& got = back.slots[i];
    EXPECT_EQ(got.state, want.state);
    EXPECT_EQ(got.outcome, want.outcome);
    EXPECT_EQ(got.reject_reason, want.reject_reason);
    EXPECT_EQ(got.admission_checked, want.admission_checked);
    EXPECT_EQ(got.prefilled, want.prefilled);
    EXPECT_EQ(got.blocks_held, want.blocks_held);
    EXPECT_EQ(got.first_token_s, want.first_token_s);
    EXPECT_EQ(got.finish_s, want.finish_s);
    EXPECT_EQ(got.generated, want.generated);
    EXPECT_EQ(got.token_times, want.token_times);
    EXPECT_EQ(got.cache_len, want.cache_len);
    ASSERT_EQ(got.k.size(), want.k.size());
    for (std::size_t s = 0; s < want.k.size(); ++s) {
      for (std::int64_t r = 0; r < want.cache_len; ++r) {
        for (std::int64_t c = 0; c < want.k[s].cols(); ++c) {
          ASSERT_EQ(got.k[s](r, c), want.k[s](r, c));
          ASSERT_EQ(got.v[s](r, c), want.v[s](r, c));
        }
      }
    }
  }
  // checkpoint_bytes is the container size: payload + checked-blob header.
  EXPECT_EQ(checkpoint_bytes(ck),
            payload.size() + resilience::kBlobHeaderBytes);
}

TEST(ServeSnapshot, TruncatedPayloadIsRejected) {
  auto payload = serialize_checkpoint(sample_checkpoint());
  payload.resize(payload.size() / 2);
  EXPECT_THROW(deserialize_checkpoint(payload),
               resilience::SnapshotCorruptError);
}

// Hostile counts and dims: each is checked against the bytes that remain
// before any resize, reserve or tensor allocation.

// Byte offsets into serialize_checkpoint(sample_checkpoint()), following the
// field order in serve/snapshot.cpp.
constexpr std::size_t kSlotCountAt = 3 * 8;  // iteration, time_s, preempted
// Slot 0: four u32 fields, then prefilled, blocks_held, first_token_s and
// finish_s.
constexpr std::size_t kGeneratedCountAt = kSlotCountAt + 8 + 4 * 4 + 4 * 8;
// generated[3], the token_times count, token_times[3], cache_len.
constexpr std::size_t kStreamCountAt = kGeneratedCountAt + 8 + 3 * 8 + 8 +
                                       3 * 8 + 8;
// The first K tensor: its u32 rank, then its first dim.
constexpr std::size_t kFirstDimAt = kStreamCountAt + 8 + 4;

/// sample_checkpoint()'s payload with the 8 bytes at `at` replaced.
std::vector<unsigned char> forged_checkpoint(std::size_t at,
                                             std::int64_t value) {
  auto payload = serialize_checkpoint(sample_checkpoint());
  std::memcpy(payload.data() + at, &value, sizeof(value));
  return payload;
}

TEST(ServeSnapshot, RejectsHugeCountsAndNegativeDims) {
  // The unforged offsets hold what sample_checkpoint() put there.
  const auto valid = serialize_checkpoint(sample_checkpoint());
  const auto read_i64 = [&](std::size_t at) {
    std::int64_t v = 0;
    std::memcpy(&v, valid.data() + at, sizeof(v));
    return v;
  };
  ASSERT_EQ(read_i64(kSlotCountAt), 2);
  ASSERT_EQ(read_i64(kGeneratedCountAt), 3);
  ASSERT_EQ(read_i64(kStreamCountAt),
            serve_toy().layers * serve_toy().num_kv_heads());
  ASSERT_EQ(read_i64(kFirstDimAt), 19);

  for (const std::size_t at :
       {kSlotCountAt, kGeneratedCountAt, kGeneratedCountAt + 8 + 3 * 8,
        kStreamCountAt}) {
    EXPECT_THROW(deserialize_checkpoint(forged_checkpoint(at, 1ll << 62)),
                 resilience::SnapshotCorruptError)
        << "count at offset " << at;
  }
  EXPECT_THROW(deserialize_checkpoint(forged_checkpoint(kFirstDimAt, -1)),
               resilience::SnapshotCorruptError);
}

TEST(ServeSnapshot, ManagerRetainsPrunesAndSkipsCorrupt) {
  const TempDir tmp("burst-serve-snap");
  const fs::path dir = tmp.path();
  ServeSnapshotManager mgr(dir.string(), /*keep_last=*/2);

  EngineCheckpoint ck = sample_checkpoint();
  for (const std::int64_t it : {2, 4, 6}) {
    ck.iteration = it;
    EXPECT_GT(mgr.save(ck), 0u);
  }
  // Retention: only the newest two files survive.
  const auto files = mgr.list();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(mgr.load_latest().iteration, 6);
  EXPECT_EQ(mgr.load(files[0]).iteration, 4);

  // Corrupt the newest file: load_latest falls back to the older one.
  {
    std::fstream f(files[1],
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(resilience::kBlobHeaderBytes) + 5);
    f.put('\x5a');
  }
  EXPECT_EQ(mgr.load_latest().iteration, 4);

  // Corrupt every file: nothing validates.
  {
    std::fstream f(files[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(resilience::kBlobHeaderBytes) + 5);
    f.put('\x5a');
  }
  EXPECT_THROW(mgr.load_latest(), resilience::SnapshotCorruptError);
}

// --- checkpoint / resume ----------------------------------------------------

TEST(ServeResilience, ResumeFromCheckpointReplaysBitwise) {
  // Baseline run, capturing every checkpoint along the way.
  Engine base(serve_toy(), toy_weights(), small_engine_config());
  add_workload(base);
  std::vector<EngineCheckpoint> cks;
  Engine::RunOptions opts;
  opts.checkpoint_every = 2;
  opts.on_checkpoint = [&](const EngineCheckpoint& ck, sim::DeviceContext&) {
    cks.push_back(ck);
  };
  ServeReport want;
  sim::Cluster c1({sim::Topology::single_node(1)});
  c1.run([&](sim::DeviceContext& ctx) { want = base.run(ctx, opts); });
  ASSERT_GE(cks.size(), 2u) << "workload too small to checkpoint";

  // Resume from a mid-run checkpoint on a fresh engine + cluster: identical
  // tokens at identical virtual times (the clock is floored to the
  // checkpoint's capture time, and everything after is deterministic).
  const EngineCheckpoint& ck = cks[cks.size() / 2];
  Engine resumed(serve_toy(), toy_weights(), small_engine_config());
  add_workload(resumed);
  Engine::RunOptions ropts;
  ropts.resume = &ck;
  ServeReport got;
  sim::Cluster c2({sim::Topology::single_node(1)});
  c2.run([&](sim::DeviceContext& ctx) { got = resumed.run(ctx, ropts); });

  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(got.results[i].generated, want.results[i].generated) << i;
    EXPECT_EQ(got.results[i].token_times_s, want.results[i].token_times_s)
        << i;
    EXPECT_EQ(got.results[i].finish_s, want.results[i].finish_s) << i;
    EXPECT_EQ(got.results[i].outcome, want.results[i].outcome) << i;
  }
}

TEST(ServeResilience, ResumeRejectsMismatchedWorkload) {
  Engine base(serve_toy(), toy_weights(), small_engine_config());
  add_workload(base);
  std::vector<EngineCheckpoint> cks;
  Engine::RunOptions opts;
  opts.checkpoint_every = 2;
  opts.on_checkpoint = [&](const EngineCheckpoint& ck, sim::DeviceContext&) {
    cks.push_back(ck);
  };
  sim::Cluster c1({sim::Topology::single_node(1)});
  c1.run([&](sim::DeviceContext& ctx) { base.run(ctx, opts); });
  ASSERT_FALSE(cks.empty());

  Engine other(serve_toy(), toy_weights(), small_engine_config());
  other.add_request(prompt_of(990, 8), 2, 0.0);  // different request set
  Engine::RunOptions ropts;
  ropts.resume = &cks.back();
  sim::Cluster c2({sim::Topology::single_node(1)});
  EXPECT_THROW(
      c2.run([&](sim::DeviceContext& ctx) { other.run(ctx, ropts); }),
      SchedulerInvariantError);
}

// --- crash recovery ---------------------------------------------------------

ServeReport fault_free_baseline() {
  Engine engine(serve_toy(), toy_weights(), small_engine_config());
  add_workload(engine);
  return run_on_single_device(engine);
}

TEST(ServeResilience, CrashRecoveryCompletesWithSameTokens) {
  const ServeReport want = fault_free_baseline();
  const double makespan = want.metrics.makespan_s;
  ASSERT_GT(makespan, 0.0);

  Engine engine(serve_toy(), toy_weights(), small_engine_config());
  add_workload(engine);
  ServeResilienceConfig rc;
  rc.checkpoint_every = 2;
  sim::FaultPlan::CrashDevice crash;
  crash.rank = 0;
  crash.at_time_s = 0.5 * makespan;
  rc.faults.crashes.push_back(crash);

  const ResilientServeReport rep = serve_with_recovery(engine, rc);
  ASSERT_EQ(rep.recoveries.size(), 1u);
  EXPECT_EQ(rep.recoveries[0].failed_rank, 0);
  EXPECT_EQ(rep.recoveries[0].cause_code, "injected_fault");
  EXPECT_GE(rep.recoveries[0].fail_time_s, 0.5 * makespan);
  EXPECT_GT(rep.recoveries[0].resumed_iteration, 0);
  EXPECT_GT(rep.recoveries[0].restore_s, 0.0);
  EXPECT_GT(rep.checkpoints, 0);

  // Same tokens come out; only the times shift by the recovery delay.
  ASSERT_EQ(rep.report.results.size(), want.results.size());
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(rep.report.results[i].generated, want.results[i].generated)
        << i;
    EXPECT_EQ(rep.report.results[i].outcome, want.results[i].outcome) << i;
    EXPECT_GE(rep.report.results[i].finish_s, want.results[i].finish_s) << i;
  }
  EXPECT_GE(rep.report.metrics.makespan_s, makespan);
}

TEST(ServeResilience, CheckpointlessCrashRestartsFromScratch) {
  const ServeReport want = fault_free_baseline();

  Engine engine(serve_toy(), toy_weights(), small_engine_config());
  add_workload(engine);
  ServeResilienceConfig rc;
  rc.checkpoint_every = 0;  // no checkpoints: recovery replays everything
  sim::FaultPlan::CrashDevice crash;
  crash.rank = 0;
  crash.at_time_s = 0.5 * want.metrics.makespan_s;
  rc.faults.crashes.push_back(crash);

  const ResilientServeReport rep = serve_with_recovery(engine, rc);
  ASSERT_EQ(rep.recoveries.size(), 1u);
  EXPECT_EQ(rep.recoveries[0].resumed_iteration, 0);
  EXPECT_EQ(rep.checkpoints, 0);
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(rep.report.results[i].generated, want.results[i].generated)
        << i;
  }
}

TEST(ServeResilience, DurableCheckpointsSurviveOnDisk) {
  const TempDir tmp("burst-serve-recover");
  const fs::path dir = tmp.path();
  const ServeReport want = fault_free_baseline();

  Engine engine(serve_toy(), toy_weights(), small_engine_config());
  add_workload(engine);
  ServeResilienceConfig rc;
  rc.checkpoint_every = 2;
  rc.snapshot_dir = dir.string();
  sim::FaultPlan::CrashDevice crash;
  crash.rank = 0;
  crash.at_time_s = 0.5 * want.metrics.makespan_s;
  rc.faults.crashes.push_back(crash);

  const ResilientServeReport rep = serve_with_recovery(engine, rc);
  ASSERT_EQ(rep.recoveries.size(), 1u);
  EXPECT_GT(rep.recoveries[0].resumed_iteration, 0);
  EXPECT_FALSE(ServeSnapshotManager(dir.string()).list().empty());
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(rep.report.results[i].generated, want.results[i].generated)
        << i;
  }
}

// The serving counterpart of ResilienceTest.RejectsSnapshotDirFromAnotherRun:
// a crash must not resume from another run's checkpoints left in a reused
// directory. The supervisor refuses to start, names the stale file and
// deletes nothing.
TEST(ServeResilience, RejectsSnapshotDirFromAnotherRun) {
  const TempDir tmp("burst-serve-stale");
  const fs::path dir = tmp.path();
  const ServeReport want = fault_free_baseline();

  ServeResilienceConfig rc;
  rc.checkpoint_every = 2;
  rc.snapshot_dir = dir.string();
  {
    Engine engine(serve_toy(), toy_weights(), small_engine_config());
    add_workload(engine);
    ASSERT_TRUE(serve_with_recovery(engine, rc).recoveries.empty());
  }
  const std::vector<std::string> before =
      ServeSnapshotManager(dir.string()).list();
  ASSERT_FALSE(before.empty());

  Engine engine(serve_toy(), toy_weights(), small_engine_config());
  add_workload(engine);
  sim::FaultPlan::CrashDevice crash;
  crash.rank = 0;
  crash.at_time_s = 0.5 * want.metrics.makespan_s;
  rc.faults.crashes.push_back(crash);
  try {
    serve_with_recovery(engine, rc);
    ADD_FAILURE() << "a run started on another run's checkpoint directory";
  } catch (const resilience::SnapshotIoError& e) {
    EXPECT_NE(std::string(e.what()).find(before.front()), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ServeSnapshotManager(dir.string()).list(), before);
}

TEST(ServeResilience, BreakerFailsFastDuringRecovery) {
  const ServeReport base = fault_free_baseline();
  const double makespan = base.metrics.makespan_s;

  Engine engine(serve_toy(), toy_weights(), small_engine_config());
  add_workload(engine);
  // A straggler request arriving long after the crash but inside the
  // breaker's cooldown window must fail fast instead of queueing. Checkpoint
  // writes charge disk time on the virtual clock, so the observed failure
  // instant lands a few makespans past the armed crash time — 10x makespan
  // is comfortably after it and far inside the 100x cooldown.
  const std::int64_t late =
      engine.add_request(prompt_of(905, 8), 4, 10.0 * makespan);
  ServeResilienceConfig rc;
  rc.checkpoint_every = 2;
  rc.breaker_cooldown_s = 100.0 * makespan;  // window swallows the arrival
  sim::FaultPlan::CrashDevice crash;
  crash.rank = 0;
  crash.at_time_s = 0.5 * makespan;
  rc.faults.crashes.push_back(crash);

  const ResilientServeReport rep = serve_with_recovery(engine, rc);
  ASSERT_EQ(rep.recoveries.size(), 1u);
  const auto& r = rep.report.results[static_cast<std::size_t>(late)];
  EXPECT_EQ(r.outcome, Outcome::kFailedFast);
  EXPECT_TRUE(r.generated.empty());
  EXPECT_EQ(r.finish_s, r.arrival_s);  // 503 is immediate
  EXPECT_EQ(outcome_http_status(r.outcome), 503);
  EXPECT_EQ(rep.report.metrics.failed_fast, 1);
  // Everyone who arrived before the crash still completes with the
  // fault-free tokens.
  for (std::size_t i = 0; i + 1 < rep.report.results.size(); ++i) {
    EXPECT_EQ(rep.report.results[i].generated, base.results[i].generated);
  }
}

TEST(ServeResilience, UnrecoverableAfterMaxRecoveries) {
  const ServeReport base = fault_free_baseline();
  Engine engine(serve_toy(), toy_weights(), small_engine_config());
  add_workload(engine);
  ServeResilienceConfig rc;
  rc.checkpoint_every = 0;
  rc.max_recoveries = 1;
  // Two crashes: the second exhausts the recovery budget. Checkpointless
  // recovery restarts from scratch, so the second crash (armed at a later
  // time) still fires inside the replay.
  for (const double frac : {0.3, 0.6}) {
    sim::FaultPlan::CrashDevice crash;
    crash.rank = 0;
    crash.at_time_s = frac * base.metrics.makespan_s;
    rc.faults.crashes.push_back(crash);
  }
  EXPECT_THROW(serve_with_recovery(engine, rc), sim::InjectedFaultError);
}

// --- graceful degradation ---------------------------------------------------

TEST(ServeDegrade, WallDeadlineCancelsWithTypedTimeout) {
  // Baseline on the exact two-request workload tells us when request 0
  // would finish unharmed; a deadline at half that must cancel it.
  const auto build = [](double timeout_s) {
    Engine engine(serve_toy(), toy_weights(), small_engine_config());
    Request r;
    r.prompt = prompt_of(901, 24);
    r.max_new_tokens = 6;
    r.timeout_s = timeout_s;
    engine.add_request(std::move(r));
    engine.add_request(prompt_of(902, 16), 8, 0.0);
    return run_on_single_device(engine);
  };
  const ServeReport base = build(kInf);
  ASSERT_EQ(base.results[0].outcome, Outcome::kCompleted);
  const double deadline = 0.5 * base.results[0].finish_s;

  const ServeReport rep = build(deadline);
  const auto& timed = rep.results[0];
  EXPECT_EQ(timed.outcome, Outcome::kTimedOut);
  EXPECT_EQ(outcome_http_status(timed.outcome), 504);
  EXPECT_LT(timed.generated.size(), 6u);  // partial stream survives
  EXPECT_GT(timed.finish_s, timed.arrival_s + deadline);
  EXPECT_EQ(rep.metrics.timeouts, 1);
  // The survivor still completes normally.
  EXPECT_EQ(rep.results[1].outcome, Outcome::kCompleted);
  EXPECT_EQ(rep.results[1].generated.size(), 8u);
}

TEST(ServeDegrade, DefaultTimeoutAppliesWhenRequestCarriesNone) {
  const ServeReport base = fault_free_baseline();
  // The workload's makespan is dominated by arrival spacing, not service
  // time, so the binding knob is the slowest request's own latency: half of
  // it guarantees at least that request overruns its config-default budget.
  double worst_latency = 0.0;
  for (const auto& r : base.results) {
    worst_latency = std::max(worst_latency, r.finish_s - r.arrival_s);
  }
  EngineConfig ec = small_engine_config();
  ec.default_timeout_s = 0.5 * worst_latency;
  Engine engine(serve_toy(), toy_weights(), ec);
  add_workload(engine);
  const ServeReport rep = run_on_single_device(engine);
  EXPECT_GT(rep.metrics.timeouts, 0);
  for (const auto& r : rep.results) {
    if (r.outcome == Outcome::kTimedOut) {
      EXPECT_GT(r.finish_s, r.arrival_s + ec.default_timeout_s);
    }
  }
}

TEST(ServeDegrade, LoadShedDropsLowestPriorityFirst) {
  EngineConfig ec = small_engine_config();
  // One long request owns the whole KV pool, so everyone else queues.
  ec.max_kv_blocks = 4;
  ec.shed_high = 2;
  ec.shed_low = 2;
  Engine engine(serve_toy(), toy_weights(), ec);
  engine.add_request(prompt_of(910, 24), 6, 0.0);  // 4 blocks: fills the pool
  // Six feasible followers queue behind it: two per priority class. One
  // generated token each — the first token falls out of the prefill logits,
  // so survivors never need a decode-growth block while the long request
  // holds the pool (the scheduler does not reserve decode growth).
  const int priorities[] = {2, 0, 1, 2, 0, 1};
  for (int i = 0; i < 6; ++i) {
    Request r;
    r.prompt = prompt_of(911 + static_cast<std::uint64_t>(i), 8);
    r.max_new_tokens = 1;
    r.arrival_s = 1e-9 * (i + 1);
    r.priority = priorities[i];
    engine.add_request(std::move(r));
  }

  const ServeReport rep = run_on_single_device(engine);
  EXPECT_EQ(rep.metrics.shed, 4);
  // Lowest priority classes are the victims; interactive (2) survives.
  for (std::size_t i = 1; i < rep.results.size(); ++i) {
    const int prio = priorities[i - 1];
    if (prio == 2) {
      EXPECT_EQ(rep.results[i].outcome, Outcome::kCompleted) << i;
    } else {
      EXPECT_EQ(rep.results[i].outcome, Outcome::kShed) << i;
      EXPECT_EQ(outcome_http_status(rep.results[i].outcome), 503);
      EXPECT_TRUE(rep.results[i].generated.empty()) << i;
    }
  }
}

TEST(ServeDegrade, HopelessTpotDeadlineDegradesToTimeout) {
  EngineConfig ec = small_engine_config();
  ec.sched.policy = BatchPolicy::kSlo;
  ec.tpot_slack_s = 1e-12;
  Engine engine(serve_toy(), toy_weights(), ec);
  Request strict;
  strict.prompt = prompt_of(920, 16);
  strict.max_new_tokens = 16;
  strict.tpot_target_s = 1e-12;  // far below any iteration floor
  engine.add_request(std::move(strict));
  engine.add_request(prompt_of(921, 16), 4, 0.0);  // no TPOT target

  const ServeReport rep = run_on_single_device(engine);
  EXPECT_EQ(rep.results[0].outcome, Outcome::kTimedOut);
  EXPECT_GE(rep.results[0].generated.size(), 1u);  // got its first token
  EXPECT_LT(rep.results[0].generated.size(), 16u);
  EXPECT_EQ(rep.results[1].outcome, Outcome::kCompleted);
  EXPECT_EQ(rep.results[1].generated.size(), 4u);
}

// --- distributed prefill retry ----------------------------------------------

TEST(ResilientPrefill, CrashShrinksRingAndMatchesFaultFree) {
  const model::ModelConfig cfg = serve_toy();
  const auto prompt = prompt_of(930, 32);

  // Fault-free makespan at world 4 tells us where mid-flight is.
  sim::Cluster probe({sim::Topology::single_node(4)});
  distributed_prefill(probe, cfg, toy_weights(), prompt, 8);
  const double makespan = probe.makespan();
  ASSERT_GT(makespan, 0.0);

  sim::Cluster::Config cc;
  cc.topo = sim::Topology::single_node(4);
  sim::FaultPlan::CrashDevice crash;
  crash.rank = 2;
  crash.at_time_s = 0.5 * makespan;
  cc.faults.crashes.push_back(crash);

  const ResilientPrefillResult out = resilient_distributed_prefill(
      cc, cfg, toy_weights(), prompt, /*block_tokens=*/8);
  EXPECT_EQ(out.attempts, 2);
  // 32 tokens shrink from 4 ranks to the largest divisor below: 2.
  EXPECT_EQ(out.final_world, 2);
  EXPECT_GT(out.wasted_s, 0.0);
  ASSERT_EQ(out.failure_codes.size(), 1u);
  EXPECT_EQ(out.failure_codes[0], "injected_fault");

  // Bit-identical to a fault-free prefill at the final world size.
  sim::Cluster clean({sim::Topology::single_node(out.final_world)});
  const DistPrefillResult want =
      distributed_prefill(clean, cfg, toy_weights(), prompt, 8);
  EXPECT_EQ(out.result.first_token, want.first_token);
  ASSERT_EQ(out.result.cache.len(), want.cache.len());
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    for (std::int64_t h = 0; h < cfg.num_kv_heads(); ++h) {
      const auto gk = out.result.cache.k_view(l, h, 32);
      const auto wk = want.cache.k_view(l, h, 32);
      const auto gv = out.result.cache.v_view(l, h, 32);
      const auto wv = want.cache.v_view(l, h, 32);
      for (std::int64_t r = 0; r < 32; ++r) {
        for (std::int64_t c = 0; c < cfg.head_dim(); ++c) {
          ASSERT_EQ(gk(r, c), wk(r, c)) << l << " " << h << " " << r;
          ASSERT_EQ(gv(r, c), wv(r, c)) << l << " " << h << " " << r;
        }
      }
    }
  }
}

TEST(ResilientPrefill, MessageLossRetriesWithoutShrinking) {
  const model::ModelConfig cfg = serve_toy();
  const auto prompt = prompt_of(931, 32);

  sim::Cluster::Config cc;
  cc.topo = sim::Topology::single_node(4);
  // Four consecutive drops on one link exhaust the communicator's send
  // attempts, surfacing CommTimeoutError; the retry consumes the budget via
  // advance_plan_after_failure and succeeds at the same world size.
  sim::FaultPlan::DropMessages drop;
  drop.src = 1;
  drop.dst = 2;
  drop.count = 4;
  cc.faults.drops.push_back(drop);

  const ResilientPrefillResult out = resilient_distributed_prefill(
      cc, cfg, toy_weights(), prompt, 8);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(out.final_world, 4);
  ASSERT_EQ(out.failure_codes.size(), 1u);
  EXPECT_EQ(out.failure_codes[0], "comm_timeout");

  sim::Cluster clean({sim::Topology::single_node(4)});
  const DistPrefillResult want =
      distributed_prefill(clean, cfg, toy_weights(), prompt, 8);
  EXPECT_EQ(out.result.first_token, want.first_token);
}

TEST(ResilientPrefill, RetriesExhaustedRethrows) {
  const model::ModelConfig cfg = serve_toy();
  const auto prompt = prompt_of(932, 32);

  sim::Cluster::Config cc;
  cc.topo = sim::Topology::single_node(4);
  // Rank 0 survives every shrink, so a stack of rank-0 crashes at t=0
  // fires on every attempt; the supervisor runs out and rethrows.
  for (int i = 0; i < 8; ++i) {
    sim::FaultPlan::CrashDevice crash;
    crash.rank = 0;
    crash.at_time_s = 0.0;
    cc.faults.crashes.push_back(crash);
  }
  PrefillRetryConfig retry;
  retry.max_attempts = 3;
  EXPECT_THROW(resilient_distributed_prefill(cc, cfg, toy_weights(), prompt,
                                             8, kernels::MaskSpec::causal(),
                                             retry),
               burst::Error);
}

}  // namespace
}  // namespace burst::serve
