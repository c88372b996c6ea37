// Resilient training driver (src/resilience/driver.hpp): the PR's
// acceptance tests. A device crash injected at step k of a multi-step
// BurstAttention training run must be detected, recovered from the latest
// snapshot, and the completed run must match a fault-free run bit for bit,
// with the recovery visible in the trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "resilience/driver.hpp"
#include "resilience/snapshot.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"
#include "temp_dir.hpp"

namespace burst {
namespace {

namespace fs = std::filesystem;

using model::ModelConfig;
using model::ModelWeights;
using resilience::ResilienceConfig;
using resilience::ResilienceReport;
using sim::Topology;

class ResilienceTest : public ::testing::Test {
 protected:
  /// 4-rank BurstAttention training config, 8 steps, snapshot every 2.
  ResilienceConfig base_config(const std::string& subdir) const {
    ResilienceConfig cfg;
    cfg.dist.model = ModelConfig::toy();
    cfg.dist.impl = model::AttnImpl::kBurst;
    cfg.cluster.topo = Topology::single_node(4);
    cfg.total_steps = 8;
    cfg.snapshot_interval = 2;
    cfg.seq_len = 32;
    cfg.snapshot_dir = base_ + "/" + subdir;
    return cfg;
  }

  TempDir tmp_{"burst-resil"};
  std::string base_ = tmp_.path().string();
};

bool has_event_prefix(const sim::TraceRecorder& trace, int rank,
                      const std::string& prefix) {
  for (const auto& ev : trace.events()) {
    if (ev.rank == rank && ev.name.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

// The headline acceptance test: rank 2 dies at step 5; the driver restores
// the step-4 snapshot, replays, and finishes all 8 steps with weights
// bitwise identical to a fault-free run. Recovery events land in the
// report and on the supervisor trace track.
TEST_F(ResilienceTest, CrashAtStepRecoversBitwiseIdentically) {
  const ModelWeights init = ModelWeights::init(ModelConfig::toy(), 21);

  ResilienceConfig clean = base_config("clean");
  const ResilienceReport ref = resilience::resilient_train_loop(clean, init);
  ASSERT_EQ(ref.steps_completed, 8);
  ASSERT_EQ(ref.recoveries, 0);
  ASSERT_EQ(ref.events.size(), 0u);

  sim::TraceRecorder trace;
  ResilienceConfig faulty = base_config("faulty");
  faulty.cluster.trace = &trace;
  sim::FaultPlan::CrashDevice crash;
  crash.rank = 2;
  crash.at_step = 5;
  faulty.cluster.faults.crashes.push_back(crash);

  const ResilienceReport rep = resilience::resilient_train_loop(faulty, init);
  EXPECT_EQ(rep.steps_completed, 8);
  EXPECT_EQ(rep.recoveries, 1);
  ASSERT_EQ(rep.events.size(), 1u);
  EXPECT_EQ(rep.events[0].failed_step, 5u);
  EXPECT_EQ(rep.events[0].resumed_from_step, 4u);
  EXPECT_EQ(rep.events[0].lost_steps, 1);
  EXPECT_EQ(rep.events[0].failed_rank, 2);
  EXPECT_GE(rep.events[0].restore_time_s, 0.0);
  EXPECT_GT(rep.wasted_virtual_time_s, 0.0);

  // Bitwise-identical final weights and loss curve.
  EXPECT_TRUE(resilience::bitwise_equal(rep.final_weights, ref.final_weights));
  ASSERT_EQ(rep.losses.size(), ref.losses.size());
  for (std::size_t i = 0; i < ref.losses.size(); ++i) {
    EXPECT_EQ(rep.losses[i], ref.losses[i]) << "step " << i;
  }

  // Recovery is visible in the trace: the crash on rank 2's track, the
  // detection/restore on the supervisor track (pid == world_size).
  const int supervisor = 4;
  EXPECT_TRUE(has_event_prefix(trace, 2, "fault:crash"));
  EXPECT_TRUE(has_event_prefix(trace, supervisor, "recovery:detect"));
  EXPECT_TRUE(has_event_prefix(trace, supervisor, "recovery:restore"));
  EXPECT_TRUE(has_event_prefix(trace, supervisor, "snapshot:save"));
}

// Time-keyed crash (mid-step, not at a step boundary) also recovers.
TEST_F(ResilienceTest, CrashAtVirtualTimeRecovers) {
  const ModelWeights init = ModelWeights::init(ModelConfig::toy(), 21);

  ResilienceConfig clean = base_config("clean");
  const ResilienceReport ref = resilience::resilient_train_loop(clean, init);

  ResilienceConfig faulty = base_config("faulty");
  sim::FaultPlan::CrashDevice crash;
  crash.rank = 1;
  crash.at_time_s = 1e-6;  // fires inside the first step's compute
  faulty.cluster.faults.crashes.push_back(crash);

  const ResilienceReport rep = resilience::resilient_train_loop(faulty, init);
  EXPECT_EQ(rep.steps_completed, 8);
  EXPECT_EQ(rep.recoveries, 1);
  ASSERT_EQ(rep.events.size(), 1u);
  EXPECT_EQ(rep.events[0].failed_rank, 1);
  EXPECT_GT(rep.events[0].detect_latency_s, 0.0);
  EXPECT_TRUE(resilience::bitwise_equal(rep.final_weights, ref.final_weights));
}

// A faulted run is a function of its seed. bench_recovery_overhead's crash
// configuration (4 ranks, rank 2 crashing at step 7, snapshot interval 4,
// a registry attached) must replay every report field, every recovery event
// and the registry bitwise. How far the aborted attempt's survivors ran
// before the abort reached them is thread timing, so nothing that reaches
// the caller may depend on it.
TEST_F(ResilienceTest, FaultPathReplaysBitwise) {
  const ModelWeights init = ModelWeights::init(ModelConfig::toy(), 2024);
  const auto run = [&](int i, std::string* metrics_json) {
    ResilienceConfig cfg = base_config("replay" + std::to_string(i));
    cfg.total_steps = 12;
    cfg.snapshot_interval = 4;
    sim::FaultPlan::CrashDevice crash;
    crash.rank = 2;
    crash.at_step = 7;
    cfg.cluster.faults.crashes.push_back(crash);
    obs::Registry reg;
    cfg.cluster.metrics = &reg;
    ResilienceReport rep = resilience::resilient_train_loop(cfg, init);
    obs::RunReport dump("test", "fault_path_replay");
    dump.attach_registry(reg);
    *metrics_json = dump.to_json();
    return rep;
  };

  std::string ref_json;
  const ResilienceReport ref = run(0, &ref_json);
  ASSERT_EQ(ref.recoveries, 1);
  ASSERT_EQ(ref.events.size(), 1u);
  for (int i = 1; i < 10; ++i) {
    std::string json;
    const ResilienceReport rep = run(i, &json);
    EXPECT_EQ(rep.steps_completed, ref.steps_completed) << i;
    EXPECT_EQ(rep.recoveries, ref.recoveries) << i;
    EXPECT_EQ(rep.snapshots_taken, ref.snapshots_taken) << i;
    EXPECT_EQ(rep.final_world_size, ref.final_world_size) << i;
    EXPECT_EQ(rep.virtual_time_s, ref.virtual_time_s) << i;
    EXPECT_EQ(rep.wasted_virtual_time_s, ref.wasted_virtual_time_s) << i;
    EXPECT_EQ(rep.snapshot_io_time_s, ref.snapshot_io_time_s) << i;
    EXPECT_EQ(rep.final_loss, ref.final_loss) << i;
    EXPECT_EQ(rep.losses, ref.losses) << i;
    EXPECT_TRUE(resilience::bitwise_equal(rep.final_weights, ref.final_weights))
        << i;
    ASSERT_EQ(rep.events.size(), ref.events.size()) << i;
    for (std::size_t k = 0; k < ref.events.size(); ++k) {
      const auto& a = rep.events[k];
      const auto& b = ref.events[k];
      EXPECT_EQ(a.failed_step, b.failed_step) << i;
      EXPECT_EQ(a.resumed_from_step, b.resumed_from_step) << i;
      EXPECT_EQ(a.lost_steps, b.lost_steps) << i;
      EXPECT_EQ(a.failed_rank, b.failed_rank) << i;
      EXPECT_EQ(a.cause, b.cause) << i;
      EXPECT_EQ(a.cause_code, b.cause_code) << i;
      EXPECT_EQ(a.detect_latency_s, b.detect_latency_s) << i;
      EXPECT_EQ(a.restore_time_s, b.restore_time_s) << i;
    }
    EXPECT_EQ(json, ref_json) << i;
  }
}

// A link that drops more frames than the retry budget: the driver recovers
// from the CommTimeoutError, heals the link, and completes. Weights still
// match a fault-free run bitwise — the failed attempt never committed.
TEST_F(ResilienceTest, PersistentLinkFaultHealedAfterRecovery) {
  const ModelWeights init = ModelWeights::init(ModelConfig::toy(), 21);

  ResilienceConfig clean = base_config("clean");
  const ResilienceReport ref = resilience::resilient_train_loop(clean, init);

  ResilienceConfig faulty = base_config("faulty");
  sim::FaultPlan::DropMessages drop;
  drop.src = 0;
  drop.dst = 1;
  drop.count = 1000;  // beyond any retry budget, and re-arms every attempt
  faulty.cluster.faults.drops.push_back(drop);

  const ResilienceReport rep = resilience::resilient_train_loop(faulty, init);
  EXPECT_EQ(rep.steps_completed, 8);
  EXPECT_EQ(rep.recoveries, 1);
  EXPECT_TRUE(resilience::bitwise_equal(rep.final_weights, ref.final_weights));
}

// With remap_on_failure, a dead rank shrinks the world: 4 ranks minus one
// casualty leaves 3 survivors, and the largest feasible zigzag world for a
// 32-token sequence is 2. Training still completes all 8 steps.
TEST_F(ResilienceTest, RemapContinuesOnSurvivors) {
  const ModelWeights init = ModelWeights::init(ModelConfig::toy(), 21);

  ResilienceConfig faulty = base_config("faulty");
  faulty.remap_on_failure = true;
  sim::FaultPlan::CrashDevice crash;
  crash.rank = 3;
  crash.at_step = 3;
  faulty.cluster.faults.crashes.push_back(crash);

  const ResilienceReport rep = resilience::resilient_train_loop(faulty, init);
  EXPECT_EQ(rep.steps_completed, 8);
  EXPECT_EQ(rep.recoveries, 1);
  EXPECT_EQ(rep.final_world_size, 2);
  for (double loss : rep.losses) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(loss, 0.0);
  }
}

TEST_F(ResilienceTest, FeasibleWorldSizeRespectsDivisibility) {
  model::DistTrainConfig dc;
  dc.model = ModelConfig::toy();  // 4 heads
  // Zigzag needs 2g | N: for N=32 and 3 survivors, g=2.
  EXPECT_EQ(resilience::feasible_world_size(dc, 32, 3), 2);
  EXPECT_EQ(resilience::feasible_world_size(dc, 32, 4), 4);
  // Ulysses additionally needs g | heads.
  dc.impl = model::AttnImpl::kUlysses;
  dc.balance = core::Balance::kContiguous;
  EXPECT_EQ(resilience::feasible_world_size(dc, 32, 3), 2);
  // USP's grid needs usp_head_parallel | g and usp_head_parallel | heads:
  // g=3 divides 6 heads but cannot hold head groups of 2.
  dc.model.heads = 6;
  dc.impl = model::AttnImpl::kUsp;
  dc.usp_head_parallel = 2;
  dc.balance = core::Balance::kZigzag;
  EXPECT_EQ(resilience::feasible_world_size(dc, 48, 3), 2);
}

// When faults outpace the recovery budget the driver gives up and
// surfaces the root cause instead of looping forever.
TEST_F(ResilienceTest, RecoveryBudgetExhaustedRethrows) {
  const ModelWeights init = ModelWeights::init(ModelConfig::toy(), 21);

  ResilienceConfig faulty = base_config("faulty");
  faulty.max_recoveries = 2;
  for (int i = 0; i < 3; ++i) {
    sim::FaultPlan::CrashDevice crash;
    crash.rank = 1;
    crash.at_step = 1;  // one entry fires per attempt: three strikes
    faulty.cluster.faults.crashes.push_back(crash);
  }

  EXPECT_THROW(resilience::resilient_train_loop(faulty, init),
               sim::InjectedFaultError);
}

// A run must not recover from another run's snapshots. Retention prunes by
// step number, so in a reused directory a new run's own step-0 snapshot is
// pruned at once and a recovery restores the older run's newest one. The
// supervisor refuses to start instead, names the stale file and deletes
// nothing.
TEST_F(ResilienceTest, RejectsSnapshotDirFromAnotherRun) {
  const ModelWeights init = ModelWeights::init(ModelConfig::toy(), 21);
  const ResilienceConfig first = base_config("shared");
  ASSERT_EQ(resilience::resilient_train_loop(first, init).steps_completed, 8);
  const std::vector<std::string> before =
      resilience::SnapshotManager(first.snapshot_dir).list();
  ASSERT_FALSE(before.empty());

  ResilienceConfig second = base_config("shared");
  sim::FaultPlan::CrashDevice crash;
  crash.rank = 2;
  crash.at_step = 3;
  second.cluster.faults.crashes.push_back(crash);
  try {
    resilience::resilient_train_loop(second, init);
    ADD_FAILURE() << "a run started on another run's snapshot directory";
  } catch (const resilience::SnapshotIoError& e) {
    EXPECT_NE(std::string(e.what()).find(before.front()), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(resilience::SnapshotManager(first.snapshot_dir).list(), before);
}

}  // namespace
}  // namespace burst
