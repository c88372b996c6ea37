// Failure injection: the simulator must turn resource exhaustion and
// stragglers into clean, observable outcomes — the mechanism behind the
// OOM entries of Figures 12-14 — without deadlocking the cluster.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "comm/communicator.hpp"
#include "comm/ring.hpp"
#include "comm/sim_transport.hpp"
#include "core/sweep.hpp"
#include "model/dist_model.hpp"
#include "model/transformer.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"
#include "tensor/rng.hpp"

namespace burst {
namespace {

using model::AttnImpl;
using model::DistTrainConfig;
using model::ModelConfig;
using model::ModelWeights;
using sim::Cluster;
using sim::DeviceContext;
using sim::DeviceOomError;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

// A memory cap below the training step's working set must abort the whole
// cluster mid-step with the OOM as the root cause — peers blocked in ring
// receives must unwind, not hang.
TEST(FailureInjection, OomDuringDistributedTrainingAborts) {
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights w = ModelWeights::init(cfg, 3);
  Rng rng(5);
  Tensor tokens = rng.token_ids(33, cfg.vocab);

  DistTrainConfig dc;
  dc.model = cfg;
  dc.impl = AttnImpl::kBurst;
  dc.ckpt = {core::CkptStrategy::kNone, 0.5};  // store everything: most memory

  // First find the real demand, then cap below it.
  Cluster::Config cc;
  cc.topo = Topology::single_node(4);
  std::uint64_t peak = 0;
  {
    Cluster probe(cc);
    probe.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      model::dist_train_step(comm, dc, w, tokens);
    });
    peak = probe.stats()[0].peak_mem_bytes;
  }
  ASSERT_GT(peak, 0u);

  cc.device_memory_capacity = peak / 2;
  Cluster capped(cc);
  EXPECT_THROW(capped.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    model::dist_train_step(comm, dc, w, tokens);
  }),
               DeviceOomError);
}

// With the cap just above the measured peak, the same step must succeed —
// the boundary is tight, not an artifact of slack in the accounting.
TEST(FailureInjection, CapJustAbovePeakSucceeds) {
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights w = ModelWeights::init(cfg, 3);
  Rng rng(5);
  Tensor tokens = rng.token_ids(33, cfg.vocab);
  DistTrainConfig dc;
  dc.model = cfg;
  dc.impl = AttnImpl::kBurst;

  Cluster::Config cc;
  cc.topo = Topology::single_node(4);
  Cluster probe(cc);
  probe.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    model::dist_train_step(comm, dc, w, tokens);
  });
  cc.device_memory_capacity = probe.stats()[0].peak_mem_bytes;
  Cluster capped(cc);
  capped.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    model::dist_train_step(comm, dc, w, tokens);
  });
  SUCCEED();
}

// A straggler device slows the whole ring: makespan tracks the slowest
// device, and every peer's attention step is gated behind it.
TEST(FailureInjection, StragglerGatesTheRing) {
  Cluster::Config cc;
  cc.topo = Topology::single_node(4);
  cc.flops_per_s = 1e9;
  Cluster cluster(cc);

  const auto run_with_straggler = [&](double extra_s) {
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      if (ctx.rank() == 2) {
        ctx.busy(extra_s);  // e.g. thermal throttling
      }
      // A barrier-synchronized phase (like each training step boundary).
      ctx.compute(1e6);
      ctx.barrier();
    });
    return cluster.makespan();
  };

  const double clean = run_with_straggler(0.0);
  const double slowed = run_with_straggler(0.5);
  EXPECT_NEAR(slowed - clean, 0.5, 1e-9);
}

// Exceptions raised in user SPMD code (not just OOM) also abort cleanly.
TEST(FailureInjection, UserExceptionAbortsBlockedCollective) {
  Cluster cluster({Topology::single_node(3)});
  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    if (ctx.rank() == 1) {
      throw std::runtime_error("injected fault");
    }
    Tensor t = Tensor::zeros(3, 3);
    comm.all_reduce_inplace(t);  // blocks on rank 1 forever otherwise
  }),
               std::runtime_error);
}

// After an aborted run the cluster is reusable: mailboxes were drained.
TEST(FailureInjection, ClusterRecoversAfterAbort) {
  Cluster cluster({Topology::single_node(2)});
  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    if (ctx.rank() == 0) {
      throw std::runtime_error("boom");
    }
    // burst-lint: allow(no-unchecked-recv) receive exists to block; the peer crash is the assertion
    ctx.recv(0, 9, sim::kIntraComm);
  }),
               std::runtime_error);
  std::atomic<int> ran{0};
  cluster.run([&](DeviceContext&) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2);
}

// --- FaultPlan-driven injection ---------------------------------------------

// A planned straggler (3x slowdown on rank 2) must not deadlock a
// barrier-synchronized phase, and the slowdown must be visible in the
// per-device trace: rank 2's compute interval is 3x everyone else's.
TEST(FaultPlan, StragglerSlowsTraceWithoutDeadlock) {
  sim::TraceRecorder trace;
  Cluster::Config cc;
  cc.topo = Topology::single_node(4);
  cc.flops_per_s = 1e9;
  cc.trace = &trace;
  sim::FaultPlan::Straggler straggler;
  straggler.rank = 2;
  straggler.slowdown = 3.0;
  cc.faults.stragglers.push_back(straggler);
  Cluster cluster(cc);

  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    ctx.compute(1e6, sim::kCompute, "step-compute");
    Tensor t = Tensor::zeros(4, 4);
    comm.all_reduce_inplace(t);
    ctx.barrier();
  });

  // 1e6 FLOPs at 1e9 FLOP/s is 1 ms; the straggler takes 3 ms and gates
  // the barrier.
  EXPECT_GE(cluster.makespan(), 3e-3);

  double dur[4] = {0, 0, 0, 0};
  for (const auto& ev : trace.events()) {
    if (ev.name == "step-compute" && ev.rank >= 0 && ev.rank < 4) {
      dur[ev.rank] = ev.end_s - ev.begin_s;
    }
  }
  EXPECT_NEAR(dur[0], 1e-3, 1e-9);
  EXPECT_NEAR(dur[2], 3e-3, 1e-9);
  EXPECT_NEAR(dur[2] / dur[0], 3.0, 1e-6);
}

// A flapping link that eats two messages mid-collective: the reliable
// communicator observes the drops and retries, and the ring all-gather
// still produces the right result on every rank.
TEST(FaultPlan, LinkFlapDuringRingRecoversViaRetry) {
  Cluster::Config cc;
  cc.topo = Topology::single_node(4);
  sim::FaultPlan::DropMessages drop;
  drop.src = 1;
  drop.dst = 2;
  drop.count = 2;
  cc.faults.drops.push_back(drop);
  Cluster cluster(cc);

  std::atomic<std::uint64_t> retries{0};
  std::atomic<int> wrong{0};
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    Tensor local = Tensor::full(2, 3, static_cast<float>(ctx.rank()));
    Tensor full = comm.all_gather_rows(local);
    for (int g = 0; g < 4; ++g) {
      for (std::int64_t r = 0; r < 2; ++r) {
        for (std::int64_t c = 0; c < 3; ++c) {
          if (full(2 * g + r, c) != static_cast<float>(g)) {
            wrong.fetch_add(1);
          }
        }
      }
    }
    retries.fetch_add(comm.retries());
  });

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cluster.fault_stats().messages_dropped, 2u);
  EXPECT_EQ(retries.load(), 2u);
}

// An injected duplicate frame is discarded by sequence-number matching;
// the second logical message still arrives intact.
TEST(FaultPlan, DuplicateFrameDiscardedBySequenceNumber) {
  Cluster::Config cc;
  cc.topo = Topology::single_node(2);
  sim::FaultPlan::DuplicateMessages dup;
  dup.src = 0;
  dup.dst = 1;
  dup.count = 1;
  cc.faults.duplicates.push_back(dup);
  Cluster cluster(cc);

  std::atomic<std::uint64_t> discarded{0};
  std::atomic<int> wrong{0};
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    if (ctx.rank() == 0) {
      comm.send(1, 5, {Tensor::full(2, 2, 7.0f)});
      comm.send(1, 5, {Tensor::full(2, 2, 9.0f)});
    } else {
      auto a = comm.recv(0, 5);
      auto b = comm.recv(0, 5);
      if (a.size() != 1 || a[0](0, 0) != 7.0f) wrong.fetch_add(1);
      if (b.size() != 1 || b[0](1, 1) != 9.0f) wrong.fetch_add(1);
      discarded.store(comm.duplicates_discarded());
    }
  });

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(discarded.load(), 1u);
  EXPECT_EQ(cluster.fault_stats().messages_duplicated, 1u);
}

// A payload bit-flipped in flight fails the frame checksum on receive.
TEST(FaultPlan, CorruptedFrameRejectedByChecksum) {
  Cluster::Config cc;
  cc.topo = Topology::single_node(2);
  sim::FaultPlan::CorruptMessages corrupt;
  corrupt.src = 0;
  corrupt.dst = 1;
  corrupt.count = 1;
  cc.faults.corruptions.push_back(corrupt);
  Cluster cluster(cc);

  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    if (ctx.rank() == 0) {
      comm.send(1, 3, {Tensor::full(4, 4, 1.0f)});
    } else {
      // burst-lint: allow(no-unchecked-recv) corruption must throw before any payload exists
      comm.recv(0, 3);
    }
  }),
               comm::CommCorruptionError);
  EXPECT_EQ(cluster.fault_stats().messages_corrupted, 1u);
  EXPECT_EQ(cluster.last_failure_rank(), 1);  // detected at the receiver
}

// Copy-on-corrupt: bit rot injected into an activation-sweep hop damages
// the frame on the wire, never the shard the sender shares with it. The
// receiver rejects the hop; the sender's own visit, which runs after the
// corrupted send, still reads its shard bitwise intact.
TEST(FaultPlan, CorruptedSweepHopLeavesSenderShardIntact) {
  Cluster::Config cc;
  cc.topo = Topology::single_node(2);
  sim::FaultPlan::CorruptMessages corrupt;
  corrupt.src = 0;
  corrupt.dst = 1;
  corrupt.count = 1;
  cc.faults.corruptions.push_back(corrupt);
  Cluster cluster(cc);

  const Tensor shard = Rng(11).gaussian(4, 4, 1.0f);
  Tensor sender_view;  // rank 0's visit of its own shard
  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    core::ring_sweep_activation(
        comm, core::SweepRoute::flat(comm::flat_ring(2)), core::SweepOptions{},
        {shard}, [&](const std::vector<Tensor>& ts, int origin) {
          if (ctx.rank() == 0 && origin == 0) {
            sender_view = ts[0];
          }
        });
  }),
               comm::CommCorruptionError);
  EXPECT_EQ(cluster.fault_stats().messages_corrupted, 1u);
  EXPECT_EQ(cluster.last_failure_rank(), 1);  // detected at the receiver
  ASSERT_EQ(sender_view.numel(), shard.numel());
  EXPECT_EQ(std::memcmp(sender_view.data(), shard.data(),
                        static_cast<std::size_t>(shard.numel()) *
                            sizeof(float)),
            0);
}

// A degraded link (10% bandwidth) stretches the transfer and the makespan.
TEST(FaultPlan, DegradedLinkStretchesMakespan) {
  const auto run_once = [](double bandwidth_factor) {
    Cluster::Config cc;
    cc.topo = Topology::single_node(2);
    if (bandwidth_factor != 1.0) {
      sim::FaultPlan::DegradeLink deg;
      deg.src = 0;
      deg.dst = 1;
      deg.bandwidth_factor = bandwidth_factor;
      cc.faults.degradations.push_back(deg);
    }
    Cluster cluster(cc);
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      if (ctx.rank() == 0) {
        comm.send(1, 2, {Tensor::zeros(2048, 2048)});
      } else {
      // burst-lint: allow(no-unchecked-recv) payload irrelevant; the test measures link-degraded makespan
        comm.recv(0, 2);
      }
    });
    return cluster.makespan();
  };

  const double clean = run_once(1.0);
  const double degraded = run_once(0.1);
  EXPECT_GT(degraded, 5.0 * clean);
}

// A receive whose message arrives past the configured virtual-clock
// deadline raises CommTimeoutError instead of silently stalling.
TEST(FaultPlan, RecvDeadlineRaisesTimeout) {
  Cluster cluster({Topology::single_node(2)});
  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    if (ctx.rank() == 0) {
      // Stall the comm stream: the message leaves 1 virtual second late.
      ctx.busy(1.0, sim::kIntraComm);
      comm.send(1, 6, {Tensor::zeros(2, 2)});
    } else {
      comm::Reliability rel;
      rel.recv_timeout_s = 0.1;
      comm.set_reliability(rel);
      // burst-lint: allow(no-unchecked-recv) timeout must fire before any payload exists
      comm.recv(0, 6);
    }
  }),
               comm::CommTimeoutError);
  EXPECT_EQ(cluster.last_failure_rank(), 1);
}

// A link that eats every attempt exhausts the bounded retry budget: the
// sender gives up with CommTimeoutError after max_send_attempts tries.
TEST(FaultPlan, RetryBudgetExhaustionRaisesTimeout) {
  Cluster::Config cc;
  cc.topo = Topology::single_node(2);
  sim::FaultPlan::DropMessages drop;
  drop.src = 0;
  drop.dst = 1;
  drop.count = 100;  // more than any retry budget
  cc.faults.drops.push_back(drop);
  Cluster cluster(cc);

  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    if (ctx.rank() == 0) {
      comm.send(1, 4, {Tensor::zeros(2, 2)});
    } else {
      // burst-lint: allow(no-unchecked-recv) the dropped frame means nothing ever arrives
      comm.recv(0, 4);
    }
  }),
               comm::CommTimeoutError);
  EXPECT_EQ(cluster.last_failure_rank(), 0);  // the sender gave up
  EXPECT_EQ(cluster.fault_stats().messages_dropped,
            static_cast<std::uint64_t>(comm::kMaxSendAttempts));
}

// A planned device crash surfaces as InjectedFaultError on the dead rank
// and as typed PeerFailedError in peers blocked on it; the run rethrows
// the root cause, not the secondary.
TEST(FaultPlan, CrashedPeerObservedAsPeerFailed) {
  Cluster::Config cc;
  cc.topo = Topology::single_node(2);
  sim::FaultPlan::CrashDevice crash;
  crash.rank = 1;
  crash.at_time_s = 0.0;
  cc.faults.crashes.push_back(crash);
  Cluster cluster(cc);

  std::atomic<int> observed_peer{-1};
  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    if (ctx.rank() == 1) {
      ctx.busy(1e-6);  // first op boundary: the crash fires here
    } else {
      try {
        // burst-lint: allow(no-unchecked-recv) PeerFailedError is the expected outcome
        ctx.recv(1, 7);
      } catch (const sim::PeerFailedError& e) {
        observed_peer.store(e.peer());
        throw;
      }
    }
  }),
               sim::InjectedFaultError);
  EXPECT_EQ(observed_peer.load(), 1);
  EXPECT_EQ(cluster.last_failure_rank(), 1);
  EXPECT_EQ(cluster.fault_stats().crashes_fired, 1u);
}

// When several ranks throw root-cause errors concurrently, attribution is
// by *virtual* failure time, not by which thread won the wall-clock race:
// rank 1 fails at virtual t=0 but reports ~50 ms of wall time late; rank 2
// fails at virtual t=1ms but reports immediately. Rank 1 must win.
TEST(FaultPlan, ConcurrentFailuresAttributeDeterministically) {
  Cluster cluster({Topology::single_node(3)});
  try {
    cluster.run([&](DeviceContext& ctx) {
      if (ctx.rank() == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::runtime_error("late-wall-early-virtual");
      }
      if (ctx.rank() == 2) {
        ctx.busy(1e-3);
        throw std::runtime_error("early-wall-late-virtual");
      }
      // burst-lint: allow(no-unchecked-recv) blocks until the abort; no payload
      ctx.recv(1, 9);  // rank 0 just blocks until the abort
    });
    FAIL() << "run should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "late-wall-early-virtual");
  }
  EXPECT_EQ(cluster.last_failure_rank(), 1);
}

}  // namespace
}  // namespace burst
