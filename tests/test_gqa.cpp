// Grouped-query attention (extension beyond the paper; LLaMA-2/3 use GQA).
// Validates the serial and distributed GQA paths and the head-parallel
// restriction.
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "model/dist_model.hpp"
#include "model/transformer.hpp"
#include "sim/cluster.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst::model {
namespace {

using kernels::MaskSpec;
using sim::Cluster;
using sim::DeviceContext;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

ModelConfig gqa_config(std::int64_t kv_heads) {
  ModelConfig cfg = ModelConfig::toy();  // 4 query heads
  cfg.kv_heads = kv_heads;
  return cfg;
}

TEST(Gqa, ConfigArithmetic) {
  ModelConfig cfg = gqa_config(2);
  EXPECT_EQ(cfg.num_kv_heads(), 2);
  EXPECT_EQ(cfg.group_size(), 2);
  EXPECT_EQ(cfg.d_kv(), 2 * cfg.head_dim());
  ModelConfig mha = gqa_config(0);
  EXPECT_EQ(mha.num_kv_heads(), mha.heads);
  EXPECT_EQ(mha.group_size(), 1);
}

TEST(Gqa, ParamCountShrinksWithKvHeads) {
  ModelConfig mha = gqa_config(4);
  ModelConfig gqa = gqa_config(1);
  EXPECT_LT(gqa.params_per_layer(), mha.params_per_layer());
}

TEST(Gqa, WeightShapesFollowKvWidth) {
  ModelConfig cfg = gqa_config(2);
  ModelWeights w = ModelWeights::init(cfg, 3);
  EXPECT_EQ(w.layers[0].wk.cols(), cfg.d_kv());
  EXPECT_EQ(w.layers[0].wv.cols(), cfg.d_kv());
  EXPECT_EQ(w.layers[0].wq.cols(), cfg.d_model);
}

// Full-model gradcheck through the GQA attention path, including the shared
// K/V head gradient accumulation.
TEST(Gqa, SerialGradcheck) {
  ModelConfig cfg = gqa_config(2);
  cfg.layers = 1;
  ModelWeights w = ModelWeights::init(cfg, 17);
  Rng rng(19);
  Tensor tokens = rng.token_ids(11, cfg.vocab);
  const MaskSpec mask = MaskSpec::causal();
  auto step = serial_train_step(cfg, w, tokens, mask);

  const float eps = 2e-2f;
  const auto check = [&](Tensor& param, const Tensor& grad, std::int64_t idx,
                         const char* name) {
    const float orig = param.data()[idx];
    param.data()[idx] = orig + eps;
    const double lp = serial_loss(cfg, w, tokens, mask);
    param.data()[idx] = orig - eps;
    const double lm = serial_loss(cfg, w, tokens, mask);
    param.data()[idx] = orig;
    const double fd = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(grad.data()[idx], fd, 2e-3 + 0.1 * std::fabs(fd)) << name;
  };
  // wk/wv receive contributions from both query heads of each group.
  check(w.layers[0].wk, step.grads.layers[0].wk, 7, "wk");
  check(w.layers[0].wv, step.grads.layers[0].wv, 21, "wv");
  check(w.layers[0].wq, step.grads.layers[0].wq, 3, "wq");
}

class GqaDist : public ::testing::TestWithParam<std::int64_t> {};

// Both backward algorithms: Burst sums a group's per-query-head dK/dV once,
// at the end; Ring sums the group into its K/V head's accumulator at every
// visit, so its low bits differ from the serial order, within tolerance.
TEST_P(GqaDist, DistributedMatchesSerial) {
  const std::int64_t kv = GetParam();
  ModelConfig cfg = gqa_config(kv);
  ModelWeights w = ModelWeights::init(cfg, 23);
  Rng rng(29);
  Tensor tokens = rng.token_ids(33, cfg.vocab);
  auto serial = serial_train_step(cfg, w, tokens, MaskSpec::causal());

  for (AttnImpl impl : {AttnImpl::kBurst, AttnImpl::kRing}) {
    DistTrainConfig dc;
    dc.model = cfg;
    dc.impl = impl;
    dc.balance = core::Balance::kZigzag;
    dc.ckpt = {core::CkptStrategy::kSeqSelective, 0.5};

    Cluster cluster({Topology::single_node(4)});
    double loss = 0.0;
    float wk_err = 1.0f;
    float wv_err = 1.0f;
    std::mutex mu;
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      auto r = dist_train_step(comm, dc, w, tokens);
      if (ctx.rank() == 0) {
        std::lock_guard lock(mu);
        loss = r.loss;
        wk_err = tensor::max_abs_diff(r.grads.layers[0].wk,
                                      serial.grads.layers[0].wk);
        wv_err = tensor::max_abs_diff(r.grads.layers[1].wv,
                                      serial.grads.layers[1].wv);
      }
    });
    const int which = static_cast<int>(impl);
    EXPECT_NEAR(loss, serial.loss, 1e-4) << "impl " << which;
    EXPECT_LT(wk_err, 2e-3f) << "impl " << which;
    EXPECT_LT(wv_err, 2e-3f) << "impl " << which;
  }
}

// Virtual time of a one-rank step with every activation kept, at one FLOP
// per second: its FLOP count.
double one_rank_step_flops(const ModelConfig& cfg, const Tensor& tokens) {
  DistTrainConfig dc;
  dc.model = cfg;
  dc.ckpt = {core::CkptStrategy::kNone, 0.0};
  const ModelWeights w = ModelWeights::init(cfg, 23);
  Cluster::Config cc;
  cc.flops_per_s = 1.0;
  Cluster cluster(cc);
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    dist_train_step(comm, dc, w, tokens);
  });
  return cluster.makespan();
}

// Narrower K/V projections save their FLOPs three times: once in the
// forward and twice in the backward (the input and weight gradients).
TEST_P(GqaDist, BackwardChargesKvWidthProjectionFlops) {
  const ModelConfig mha = gqa_config(0);
  const ModelConfig gqa = gqa_config(GetParam());
  Rng rng(29);
  const Tensor tokens = rng.token_ids(65, mha.vocab);
  const double rows = 64.0;
  // The Q/K/V projections: 2·rows·d·(d + 2·d_kv) FLOPs per layer.
  const double saved_per_pass = 2.0 * rows * static_cast<double>(mha.d_model) *
                                2.0 *
                                static_cast<double>(mha.d_kv() - gqa.d_kv());
  EXPECT_EQ(one_rank_step_flops(mha, tokens) - one_rank_step_flops(gqa, tokens),
            3.0 * static_cast<double>(mha.layers) * saved_per_pass);
}

INSTANTIATE_TEST_SUITE_P(KvHeads, GqaDist, ::testing::Values(1, 2, 4));

TEST(Gqa, HeadParallelImplsRejectGqa) {
  ModelConfig cfg = gqa_config(2);
  ModelWeights w = ModelWeights::init(cfg, 31);
  Rng rng(37);
  Tensor tokens = rng.token_ids(33, cfg.vocab);
  DistTrainConfig dc;
  dc.model = cfg;
  dc.impl = AttnImpl::kUlysses;
  Cluster cluster({Topology::single_node(4)});
  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    dist_train_step(comm, dc, w, tokens);
  }),
               std::invalid_argument);
}

}  // namespace
}  // namespace burst::model
