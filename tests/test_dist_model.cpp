// End-to-end integration: a full distributed training step (embedding ->
// N transformer blocks with distributed attention -> fused LM head + loss ->
// backward with checkpoint recomputation -> gradient all-reduce) must equal
// a serial reference up to fp32 reassociation, for every attention
// implementation and every checkpointing strategy. The reference
// (tests/reference_model.hpp) shares no attention or LM-head kernel with
// the step.
#include "model/dist_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ios>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "model/transformer.hpp"
#include "pin.hpp"
#include "reference_model.hpp"
#include "sim/cluster.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst::model {
namespace {

using core::Balance;
using core::CkptConfig;
using core::CkptStrategy;
using kernels::MaskSpec;
using sim::Cluster;
using sim::DeviceContext;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

constexpr std::int64_t kSeq = 32;  // +1 target token appended

struct Fixture {
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights weights = ModelWeights::init(cfg, 41);
  Tensor tokens;

  Fixture() {
    Rng rng(43);
    tokens = rng.token_ids(kSeq + 1, cfg.vocab);
  }
};

void expect_grads_close(const ModelGrads& got, const ModelGrads& ref,
                        float tol) {
  for (std::size_t l = 0; l < ref.layers.size(); ++l) {
    EXPECT_LT(tensor::max_abs_diff(got.layers[l].wq, ref.layers[l].wq), tol)
        << "wq layer " << l;
    EXPECT_LT(tensor::max_abs_diff(got.layers[l].wk, ref.layers[l].wk), tol);
    EXPECT_LT(tensor::max_abs_diff(got.layers[l].wv, ref.layers[l].wv), tol);
    EXPECT_LT(tensor::max_abs_diff(got.layers[l].wo, ref.layers[l].wo), tol);
    EXPECT_LT(tensor::max_abs_diff(got.layers[l].w1, ref.layers[l].w1), tol);
    EXPECT_LT(tensor::max_abs_diff(got.layers[l].w2, ref.layers[l].w2), tol);
  }
  EXPECT_LT(tensor::max_abs_diff(got.w_embed, ref.w_embed), tol);
  EXPECT_LT(tensor::max_abs_diff(got.w_head, ref.w_head), tol);
}

DistStepResult run_distributed(const Fixture& fx, const DistTrainConfig& cfg,
                               const Topology& topo) {
  Cluster cluster({topo});
  DistStepResult result;
  std::mutex mu;
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    DistStepResult r = dist_train_step(comm, cfg, fx.weights, fx.tokens);
    if (ctx.rank() == 0) {
      std::lock_guard lock(mu);
      result = std::move(r);
    }
  });
  return result;
}

using ImplCase = std::tuple<AttnImpl, Balance, CkptStrategy>;

class DistModel : public ::testing::TestWithParam<ImplCase> {};

TEST_P(DistModel, MatchesSerialReference) {
  const auto [impl, balance, ckpt] = GetParam();
  Fixture fx;
  const auto serial = testing::reference_train_step(fx.cfg, fx.weights,
                                                    fx.tokens,
                                                    MaskSpec::causal());

  DistTrainConfig cfg;
  cfg.model = fx.cfg;
  cfg.impl = impl;
  cfg.balance = balance;
  cfg.ckpt = CkptConfig{ckpt, 0.5};
  cfg.usp_head_parallel = 2;
  DistStepResult dist = run_distributed(fx, cfg, Topology::single_node(4));

  EXPECT_NEAR(dist.loss, serial.loss, 1e-4);
  expect_grads_close(dist.grads, serial.grads, 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    RingFamily, DistModel,
    ::testing::Combine(::testing::Values(AttnImpl::kBurst, AttnImpl::kRing),
                       ::testing::Values(Balance::kZigzag, Balance::kStriped,
                                         Balance::kContiguous),
                       ::testing::Values(CkptStrategy::kNone,
                                         CkptStrategy::kFull,
                                         CkptStrategy::kSelectivePP,
                                         CkptStrategy::kSeqSelective)));

INSTANTIATE_TEST_SUITE_P(
    HeadFamily, DistModel,
    ::testing::Combine(::testing::Values(AttnImpl::kUlysses, AttnImpl::kUsp),
                       ::testing::Values(Balance::kContiguous),
                       ::testing::Values(CkptStrategy::kSelectivePP)));

// FNV-1a over the raw bits of every gradient tensor, in parameter order.
std::uint64_t grads_fnv(const ModelGrads& g) {
  Fnv h;
  for_each_param([&h](const Tensor& t) { h.tensor(t); }, g);
  return h.h;
}

// The step's loss and gradients are documented as identical on all ranks:
// every rank must hold the same bits, not merely close values, on one node
// and across two.
TEST_F(DistModel, AllRanksHoldBitwiseIdenticalGrads) {
  Fixture fx;
  for (const Topology& topo :
       {Topology::single_node(4), Topology::multi_node(2, 2)}) {
    for (AttnImpl impl : {AttnImpl::kBurst, AttnImpl::kRing}) {
      DistTrainConfig cfg;
      cfg.model = fx.cfg;
      cfg.impl = impl;
      Cluster cluster({topo});
      std::vector<double> losses(static_cast<std::size_t>(topo.world_size()));
      std::vector<std::uint64_t> hashes(losses.size());
      cluster.run([&](DeviceContext& ctx) {
        comm::SimTransport comm_tp(ctx);
        comm::Communicator comm(comm_tp);
        const DistStepResult r =
            dist_train_step(comm, cfg, fx.weights, fx.tokens);
        const auto rank = static_cast<std::size_t>(ctx.rank());
        losses[rank] = r.loss;
        hashes[rank] = grads_fnv(r.grads);
      });
      for (std::size_t r = 1; r < losses.size(); ++r) {
        EXPECT_EQ(losses[r], losses[0])
            << "rank " << r << ", impl " << static_cast<int>(impl);
        EXPECT_EQ(hashes[r], hashes[0])
            << "rank " << r << ", impl " << static_cast<int>(impl);
      }
    }
  }
}

struct PinnedRank {
  double elapsed_s;
  std::uint64_t bytes_sent, messages_sent, peak_mem_bytes;
};

struct UlyssesPin {
  Topology topo;
  double loss;
  std::uint64_t grads_fnv;
  std::vector<PinnedRank> ranks;
};

// Ulysses is USP with one head group spanning the world. These values were
// captured from the standalone Ulysses implementation that path replaced;
// the loss and gradients must stay bitwise, and every rank's virtual clock,
// traffic and peak memory must stay identical.
TEST(DistModelUlysses, MatchesPinnedParentBitwise) {
  Fixture fx;
  const std::vector<UlyssesPin> pins = {
      {Topology::single_node(4),
       0x1.093ce4p+2,
       0x3cc30d8e9b51c5f6ULL,
       {{0x1.6e132bf55cfeap-13, 119814, 117, 3072},
        {0x1.6e1e2ab54dbb5p-13, 119814, 117, 3072},
        {0x1.6e2929753e78p-13, 119814, 117, 3072},
        {0x1.6e2929753e78p-13, 119814, 117, 3072}}},
      {Topology::multi_node(2, 2),
       0x1.093ce4p+2,
       0x3cc30d8e9b51c5f6ULL,
       {{0x1.cb70171b7adcfp-12, 119814, 117, 3072},
        {0x1.cb9c121b3dcfcp-12, 119814, 117, 3072},
        {0x1.cb70171b7adcfp-12, 119814, 117, 3072},
        {0x1.cb9c121b3dcfcp-12, 119814, 117, 3072}}},
  };
  for (const auto& pin : pins) {
    DistTrainConfig cfg;
    cfg.model = fx.cfg;
    cfg.impl = AttnImpl::kUlysses;
    cfg.ckpt = CkptConfig{CkptStrategy::kSelectivePP, 0.5};
    Cluster cluster({pin.topo});
    DistStepResult result;
    std::mutex mu;
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      DistStepResult r = dist_train_step(comm, cfg, fx.weights, fx.tokens);
      if (ctx.rank() == 0) {
        std::lock_guard lock(mu);
        result = std::move(r);
      }
    });
    EXPECT_EQ(result.loss, pin.loss);
    EXPECT_EQ(grads_fnv(result.grads), pin.grads_fnv);
    const auto& stats = cluster.stats();
    ASSERT_EQ(stats.size(), pin.ranks.size());
    for (std::size_t r = 0; r < stats.size(); ++r) {
      EXPECT_EQ(stats[r].elapsed_s, pin.ranks[r].elapsed_s) << "rank " << r;
      EXPECT_EQ(stats[r].bytes_sent, pin.ranks[r].bytes_sent) << "rank " << r;
      EXPECT_EQ(stats[r].messages_sent, pin.ranks[r].messages_sent)
          << "rank " << r;
      EXPECT_EQ(stats[r].peak_mem_bytes, pin.ranks[r].peak_mem_bytes)
          << "rank " << r;
    }
  }
}

struct SweepPin {
  const char* name;
  AttnImpl impl;
  std::int64_t kv_heads;
  Topology topo;
  double loss;
  std::uint64_t grads_fnv;
  std::uint64_t messages_sent, bytes_sent;  // every rank's
};

// The multi-rank step's loss and gradient bits and each rank's traffic, for
// the context-parallel sweeps (RoPE on, zigzag rows, seq-selective
// recompute) and USP's two-member rings. The loss and gradients were
// recorded when every query head ran a sweep of its own, and must not move.
// The traffic is that of one sweep per layer carrying every head, each K/V
// head's shard once per hop.
TEST(DistModelPin, MultiRankLossGradsAndTraffic) {
  const Topology one = Topology::single_node(4);
  const Topology two = Topology::multi_node(2, 2);
  const std::vector<SweepPin> pins = {
      {"burst-mha/1x4", AttnImpl::kBurst, 0, one, 0x1.091ab2p+2,
       0x555f51b3ec73f6c9ULL, 71, 133894},
      {"ring-mha/1x4", AttnImpl::kRing, 0, one, 0x1.091ab2p+2,
       0xae00f295d2bb9c15ULL, 71, 137222},
      {"burst-kv2/1x4", AttnImpl::kBurst, 2, one, 0x1.29199p+2,
       0x74b83ae55154196bULL, 71, 115462},
      {"burst-kv1/1x4", AttnImpl::kBurst, 1, one, 0x1.391e48p+2,
       0x0286d073a4019e82ULL, 71, 106246},
      {"usp-ring2/1x4", AttnImpl::kUsp, 0, one, 0x1.093ce6p+2,
       0xe896ef480f62dcc7ULL, 79, 126982},
      {"burst-mha/2x2", AttnImpl::kBurst, 0, two, 0x1.091ab2p+2,
       0xa348acb558ba26b4ULL, 71, 133894},
      {"ring-mha/2x2", AttnImpl::kRing, 0, two, 0x1.091ab2p+2,
       0xa348acb558ba26b4ULL, 71, 137222},
      {"burst-kv2/2x2", AttnImpl::kBurst, 2, two, 0x1.29199p+2,
       0x576a6e9ef51a4d65ULL, 71, 115462},
      {"burst-kv1/2x2", AttnImpl::kBurst, 1, two, 0x1.391e48p+2,
       0x022423c99af980deULL, 71, 106246},
      {"usp-ring2/2x2", AttnImpl::kUsp, 0, two, 0x1.093ce6p+2,
       0xe896ef480f62dcc7ULL, 79, 126982},
  };
  for (const SweepPin& pin : pins) {
    Fixture fx;
    fx.cfg.kv_heads = pin.kv_heads;
    fx.cfg.use_rope = pin.impl != AttnImpl::kUsp;
    fx.weights = ModelWeights::init(fx.cfg, 41);
    DistTrainConfig cfg;
    cfg.model = fx.cfg;
    cfg.impl = pin.impl;
    cfg.ckpt = CkptConfig{CkptStrategy::kSeqSelective, 0.5};
    cfg.usp_head_parallel = 2;
    Cluster cluster({pin.topo});
    DistStepResult r;
    std::mutex mu;
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      DistStepResult mine = dist_train_step(comm, cfg, fx.weights, fx.tokens);
      if (ctx.rank() == 0) {
        std::lock_guard lock(mu);
        r = std::move(mine);
      }
    });
    EXPECT_EQ(r.loss, pin.loss) << pin.name << ": got " << std::hexfloat
                                << r.loss;
    EXPECT_EQ(grads_fnv(r.grads), pin.grads_fnv)
        << pin.name << ": got 0x" << std::hex << grads_fnv(r.grads);
    for (std::size_t k = 0; k < cluster.stats().size(); ++k) {
      EXPECT_EQ(cluster.stats()[k].messages_sent, pin.messages_sent)
          << pin.name << " rank " << k;
      EXPECT_EQ(cluster.stats()[k].bytes_sent, pin.bytes_sent)
          << pin.name << " rank " << k;
    }
  }
}

// Ulysses shards the sequence contiguously whatever balance is asked for.
TEST(DistModelUlysses, IndexMapIsContiguousUnderEveryBalance) {
  Fixture fx;
  for (Balance b : {Balance::kContiguous, Balance::kZigzag, Balance::kStriped}) {
    DistTrainConfig cfg;
    cfg.model = fx.cfg;
    cfg.impl = AttnImpl::kUlysses;
    cfg.balance = b;
    for (int r = 0; r < 4; ++r) {
      const auto got = dist_index_map(cfg, kSeq, 4, r);
      const auto want = core::device_index_map(Balance::kContiguous, kSeq, 4, r);
      ASSERT_EQ(got.size(), want.size());
      for (std::int64_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got.global(i), want.global(i)) << "rank " << r << " row " << i;
      }
    }
  }
}

TEST(DistModelTopo, DoubleRingMultiNodeMatchesSerial) {
  Fixture fx;
  const auto serial = testing::reference_train_step(
      fx.cfg, fx.weights, fx.tokens, MaskSpec::causal());
  DistTrainConfig cfg;
  cfg.model = fx.cfg;
  cfg.impl = AttnImpl::kBurst;
  cfg.balance = Balance::kZigzag;
  cfg.ckpt = CkptConfig{CkptStrategy::kSeqSelective, 0.5};
  cfg.topo_aware = true;
  DistStepResult dist = run_distributed(fx, cfg, Topology::multi_node(2, 2));
  EXPECT_NEAR(dist.loss, serial.loss, 1e-4);
  expect_grads_close(dist.grads, serial.grads, 2e-3f);
}

TEST(DistModelTopo, NaiveLmHeadMatchesFused) {
  Fixture fx;
  DistTrainConfig cfg;
  cfg.model = fx.cfg;
  cfg.impl = AttnImpl::kBurst;
  cfg.fused_lm_head = true;
  DistStepResult fused = run_distributed(fx, cfg, Topology::single_node(2));
  cfg.fused_lm_head = false;
  DistStepResult naive = run_distributed(fx, cfg, Topology::single_node(2));
  EXPECT_NEAR(fused.loss, naive.loss, 1e-5);
  expect_grads_close(fused.grads, naive.grads, 1e-4f);
}

// The paper's memory ordering (Figure 7): for the stored-activation share,
// none > selective++ > seq-selective > full; and the fused LM head beats the
// naive one. Verified against the simulator's real per-device peaks.
TEST(DistModelMemory, CheckpointStrategiesOrderPeakMemory) {
  Fixture fx;
  const auto peak_for = [&](CkptStrategy s, bool fused) {
    DistTrainConfig cfg;
    cfg.model = fx.cfg;
    cfg.impl = AttnImpl::kBurst;
    cfg.ckpt = CkptConfig{s, 0.5};
    cfg.fused_lm_head = fused;
    Cluster cluster({Topology::single_node(4)});
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      dist_train_step(comm, cfg, fx.weights, fx.tokens);
    });
    return cluster.stats()[0].peak_mem_bytes;
  };

  const auto none = peak_for(CkptStrategy::kNone, true);
  const auto spp = peak_for(CkptStrategy::kSelectivePP, true);
  const auto seq = peak_for(CkptStrategy::kSeqSelective, true);
  const auto full = peak_for(CkptStrategy::kFull, true);
  EXPECT_GT(none, spp);
  EXPECT_GT(spp, seq);
  EXPECT_GT(seq, full);

  // The fused-vs-naive LM head contrast needs a local shard longer than the
  // fused sequence block (32 rows), so use a longer sequence on 2 devices.
  Rng rng(53);
  Tensor long_tokens = rng.token_ids(129, fx.cfg.vocab);
  const auto head_peak = [&](bool fused) {
    DistTrainConfig cfg;
    cfg.model = fx.cfg;
    cfg.impl = AttnImpl::kBurst;
    cfg.ckpt = CkptConfig{CkptStrategy::kFull, 0.5};
    cfg.fused_lm_head = fused;
    Cluster cluster({Topology::single_node(2)});
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      dist_train_step(comm, cfg, fx.weights, long_tokens);
    });
    return cluster.stats()[0].peak_mem_bytes;
  };
  EXPECT_GT(head_peak(false), head_peak(true));
}

TEST(DistModelTraining, DistributedSgdConvergesLikeSerial) {
  Fixture fx;
  ModelWeights w_serial = fx.weights;
  ModelWeights w_dist = fx.weights;
  const MaskSpec mask = MaskSpec::causal();

  DistTrainConfig cfg;
  cfg.model = fx.cfg;
  cfg.impl = AttnImpl::kBurst;
  cfg.balance = Balance::kZigzag;

  Cluster cluster({Topology::single_node(2)});
  double dist_loss = 0.0;
  double serial_final = 0.0;
  for (int iter = 0; iter < 3; ++iter) {
    auto s = serial_train_step(fx.cfg, w_serial, fx.tokens, mask);
    apply_sgd(w_serial, s.grads, 0.05f);
    serial_final = s.loss;

    std::mutex mu;
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      auto r = dist_train_step(comm, cfg, w_dist, fx.tokens);
      if (ctx.rank() == 0) {
        std::lock_guard lock(mu);
        dist_loss = r.loss;
        // All ranks hold identical all-reduced grads; rank 0 applies.
        apply_sgd(w_dist, r.grads, 0.05f);
      }
    });
    EXPECT_NEAR(dist_loss, serial_final, 5e-3) << "iter " << iter;
  }
}

// The one-rank step against the reference, for MHA and GQA with RoPE on,
// under a causal and a document mask: through serial_train_step (contiguous
// rows, no recompute) and through dist_train_step on a one-device cluster
// with the default zigzag rows and selective++ recompute.
TEST(DistModelOracle, OneRankStepMatchesReference) {
  for (std::int64_t kv_heads : {0, 2}) {
    ModelConfig m = ModelConfig::toy();
    m.kv_heads = kv_heads;
    m.use_rope = true;
    Fixture fx;
    fx.cfg = m;
    fx.weights = ModelWeights::init(m, 47);
    for (const MaskSpec& mask :
         {MaskSpec::causal(), MaskSpec::document_from_lengths({12, 20})}) {
      const auto ref =
          testing::reference_train_step(m, fx.weights, fx.tokens, mask);
      const auto one = serial_train_step(m, fx.weights, fx.tokens, mask);
      EXPECT_NEAR(one.loss, ref.loss, 1e-4) << "kv_heads " << kv_heads;
      expect_grads_close(one.grads, ref.grads, 2e-3f);

      DistTrainConfig cfg;
      cfg.model = m;
      cfg.mask = mask;
      const DistStepResult dist =
          run_distributed(fx, cfg, Topology::single_node(1));
      EXPECT_NEAR(dist.loss, ref.loss, 1e-4) << "kv_heads " << kv_heads;
      expect_grads_close(dist.grads, ref.grads, 2e-3f);
    }
  }
}

// Head-parallel impls rotate Q and K at the rows' global positions like the
// context-parallel ones, so their gradients must be rotated back too.
TEST(DistModelOracle, HeadParallelWithRopeMatchesReference) {
  Fixture fx;
  fx.cfg.use_rope = true;
  fx.weights = ModelWeights::init(fx.cfg, 41);
  const auto ref = testing::reference_train_step(fx.cfg, fx.weights,
                                                 fx.tokens, MaskSpec::causal());
  for (AttnImpl impl : {AttnImpl::kUlysses, AttnImpl::kUsp}) {
    DistTrainConfig cfg;
    cfg.model = fx.cfg;
    cfg.impl = impl;
    cfg.usp_head_parallel = 2;
    const DistStepResult dist =
        run_distributed(fx, cfg, Topology::single_node(4));
    EXPECT_NEAR(dist.loss, ref.loss, 1e-4) << static_cast<int>(impl);
    expect_grads_close(dist.grads, ref.grads, 2e-3f);
  }
}

// Bad token tensors are refused before anything runs, through the
// distributed step on two ranks and through the one-device entry point.
void expect_tokens_rejected(const Fixture& fx) {
  DistTrainConfig cfg;
  cfg.model = fx.cfg;
  EXPECT_THROW(run_distributed(fx, cfg, Topology::single_node(2)),
               std::invalid_argument);
  EXPECT_THROW(
      serial_train_step(fx.cfg, fx.weights, fx.tokens, MaskSpec::causal()),
      std::invalid_argument);
}

TEST(DistModelTokens, RejectsFewerThanTwoIds) {
  Fixture fx;
  for (std::int64_t count : {0, 1}) {
    fx.tokens = Tensor::zeros(count);
    expect_tokens_rejected(fx);
  }
}

TEST(DistModelTokens, RejectsIdOutsideVocab) {
  for (float bad : {-1.0f, static_cast<float>(ModelConfig::toy().vocab)}) {
    Fixture fx;
    fx.tokens[kSeq / 2] = bad;
    expect_tokens_rejected(fx);
  }
}

}  // namespace
}  // namespace burst::model
