// Functional FSDP (ZeRO-3): sharded training must produce exactly the same
// trajectory as replicated training, while each device permanently stores
// only 1/G of the parameters.
#include "model/fsdp.hpp"

#include <gtest/gtest.h>

#include <mutex>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "sim/cluster.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst::model {
namespace {

using sim::Cluster;
using sim::DeviceContext;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

TEST(Fsdp, ShardGatherRoundTrip) {
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights full = ModelWeights::init(cfg, 5);
  const int g = 4;
  Cluster cluster({Topology::single_node(g)});
  std::vector<float> err(static_cast<std::size_t>(g), 1.0f);
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    FsdpShards shards = fsdp_shard(full, g, ctx.rank());
    ModelWeights rebuilt = fsdp_gather_all(comm, shards);
    float e = tensor::max_abs_diff(rebuilt.layers[0].wq, full.layers[0].wq);
    e = std::max(e, tensor::max_abs_diff(rebuilt.w_head, full.w_head));
    e = std::max(e, tensor::max_abs_diff(rebuilt.layers[1].w2,
                                         full.layers[1].w2));
    err[static_cast<std::size_t>(ctx.rank())] = e;
  });
  for (int r = 0; r < g; ++r) {
    EXPECT_FLOAT_EQ(err[static_cast<std::size_t>(r)], 0.0f);
  }
}

TEST(Fsdp, ShardBytesAreOneGth) {
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights full = ModelWeights::init(cfg, 7);
  const int g = 4;
  FsdpShards s0 = fsdp_shard(full, g, 0);
  std::uint64_t full_bytes = 0;
  for (const auto& l : full.layers) {
    full_bytes += static_cast<std::uint64_t>(
                      l.wq.numel() + l.wk.numel() + l.wv.numel() +
                      l.wo.numel() + l.w1.numel() + l.w2.numel()) *
                  2;
  }
  full_bytes +=
      static_cast<std::uint64_t>(full.w_embed.numel() + full.w_head.numel()) *
      2;
  EXPECT_EQ(2 * static_cast<std::uint64_t>(param_count(s0)), full_bytes / g);
}

TEST(Fsdp, IndivisibleRowsThrow) {
  ModelConfig cfg = ModelConfig::toy();
  cfg.vocab = 63;  // not divisible by 4
  ModelWeights full = ModelWeights::init(cfg, 9);
  EXPECT_THROW(fsdp_shard(full, 4, 0), std::invalid_argument);
}

// The flagship: multi-step FSDP training tracks replicated training exactly.
TEST(Fsdp, TrainingTrajectoryMatchesReplicated) {
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights init = ModelWeights::init(cfg, 11);
  Rng rng(13);
  Tensor tokens = rng.token_ids(33, cfg.vocab);
  const int g = 4;
  const float lr = 0.05f;

  DistTrainConfig dc;
  dc.model = cfg;
  dc.impl = AttnImpl::kBurst;
  dc.balance = core::Balance::kZigzag;

  // Replicated baseline.
  ModelWeights w_rep = init;
  Cluster cluster({Topology::single_node(g)});
  std::vector<double> rep_losses;
  for (int step = 0; step < 3; ++step) {
    std::mutex mu;
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      auto r = dist_train_step(comm, dc, w_rep, tokens);
      if (ctx.rank() == 0) {
        std::lock_guard lock(mu);
        rep_losses.push_back(r.loss);
        apply_sgd(w_rep, r.grads, lr);
      }
    });
  }

  // FSDP path: shards live across iterations inside one cluster run.
  std::vector<double> fsdp_losses;
  ModelWeights final_gathered;
  std::mutex mu;
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    FsdpShards shards = fsdp_shard(init, g, ctx.rank());
    for (int step = 0; step < 3; ++step) {
      auto r = fsdp_train_step(comm, dc, shards, tokens);
      apply_sgd(shards, r.grad_shards, lr);
      if (ctx.rank() == 0) {
        std::lock_guard lock(mu);
        fsdp_losses.push_back(r.loss);
      }
    }
    ModelWeights gathered = fsdp_gather_all(comm, shards);
    if (ctx.rank() == 0) {
      std::lock_guard lock(mu);
      final_gathered = std::move(gathered);
    }
  });

  ASSERT_EQ(rep_losses.size(), 3u);
  ASSERT_EQ(fsdp_losses.size(), 3u);
  for (int step = 0; step < 3; ++step) {
    EXPECT_NEAR(fsdp_losses[static_cast<std::size_t>(step)],
                rep_losses[static_cast<std::size_t>(step)], 5e-4)
        << "step " << step;
  }
  EXPECT_LT(tensor::max_abs_diff(final_gathered.layers[0].wq,
                                 w_rep.layers[0].wq),
            5e-4f);
  EXPECT_LT(tensor::max_abs_diff(final_gathered.w_head, w_rep.w_head), 5e-4f);
}

TEST(Fsdp, GradShardsSumAcrossDevices) {
  // The reduce-scattered shard on rank r equals row-slice r of the summed
  // full gradients.
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights w = ModelWeights::init(cfg, 17);
  Rng rng(19);
  Tensor tokens = rng.token_ids(33, cfg.vocab);
  const int g = 4;

  DistTrainConfig dc;
  dc.model = cfg;
  dc.impl = AttnImpl::kBurst;

  // Reference: replicated (all-reduced) gradients.
  Cluster cluster({Topology::single_node(g)});
  ModelGrads ref = ModelGrads::zeros(cfg);
  std::mutex mu;
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    auto r = dist_train_step(comm, dc, w, tokens);
    if (ctx.rank() == 0) {
      std::lock_guard lock(mu);
      ref = std::move(r.grads);
    }
  });

  std::vector<float> err(static_cast<std::size_t>(g), 1.0f);
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    FsdpShards shards = fsdp_shard(w, g, ctx.rank());
    auto r = fsdp_train_step(comm, dc, shards, tokens);
    const std::int64_t m = ref.layers[0].wq.rows() / g;
    Tensor expected = ref.layers[0].wq.copy_rows(ctx.rank() * m, m);
    err[static_cast<std::size_t>(ctx.rank())] =
        tensor::max_abs_diff(r.grad_shards.layers[0].wq, expected);
  });
  for (int r = 0; r < g; ++r) {
    EXPECT_LT(err[static_cast<std::size_t>(r)], 1e-4f) << "rank " << r;
  }
}

}  // namespace
}  // namespace burst::model
