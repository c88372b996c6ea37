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
