#include "model/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "model/fsdp.hpp"
#include "sim/memory.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst::model {
namespace {

using kernels::MaskSpec;
using tensor::Rng;
using tensor::Tensor;

TEST(Adam, SingleParamMatchesHandComputation) {
  // One 1x1 "model": check the textbook Adam update for two steps.
  ModelWeights w;
  w.w_embed = Tensor::zeros(1, 1);
  w.w_head = Tensor::zeros(1, 1);
  ModelGrads g;
  g.w_embed = Tensor::zeros(1, 1);
  g.w_head = Tensor::zeros(1, 1);
  g.w_head(0, 0) = 0.5f;

  AdamConfig ac;
  ac.lr = 0.1f;
  AdamOptimizer opt(w, ac);
  opt.step(w, g);
  // Step 1: mhat = grad, vhat = grad^2 -> update ~= -lr * sign(grad).
  EXPECT_NEAR(w.w_head(0, 0), -0.1f * 0.5f / (0.5f + 1e-8f), 1e-5);
  EXPECT_EQ(opt.steps_taken(), 1);

  const float after_one = w.w_head(0, 0);
  opt.step(w, g);
  EXPECT_LT(w.w_head(0, 0), after_one);  // same-sign grad keeps descending
}

TEST(Adam, ZeroGradLeavesWeightsUnchanged) {
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights w = ModelWeights::init(cfg, 5);
  ModelWeights before = w;
  ModelGrads g = ModelGrads::zeros(cfg);
  AdamOptimizer opt(w, {});
  opt.step(w, g);
  EXPECT_FLOAT_EQ(
      tensor::max_abs_diff(w.layers[0].wq, before.layers[0].wq), 0.0f);
  EXPECT_FLOAT_EQ(tensor::max_abs_diff(w.w_head, before.w_head), 0.0f);
}

TEST(Adam, TrainsToyModelBelowSgd) {
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights w_adam = ModelWeights::init(cfg, 7);
  ModelWeights w_sgd = w_adam;
  Rng rng(9);
  Tensor tokens = rng.token_ids(33, cfg.vocab);
  const MaskSpec mask = MaskSpec::causal();

  AdamConfig ac;
  ac.lr = 0.01f;
  AdamOptimizer opt(w_adam, ac);
  for (int i = 0; i < 10; ++i) {
    auto s = serial_train_step(cfg, w_adam, tokens, mask);
    opt.step(w_adam, s.grads);
  }
  const double adam_loss = serial_loss(cfg, w_adam, tokens, mask);
  const double init_loss =
      serial_loss(cfg, ModelWeights::init(cfg, 7), tokens, mask);
  EXPECT_LT(adam_loss, init_loss);
}

TEST(Adam, OnDeviceStateChargesTwelveBytesPerParam) {
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights w = ModelWeights::init(cfg, 11);
  sim::MemoryTracker mem;
  {
    AdamOptimizer opt(w, {}, &mem);
    EXPECT_EQ(mem.used(),
              static_cast<std::uint64_t>(opt.num_params()) * 12);
  }
  EXPECT_EQ(mem.used(), 0u);  // RAII release
}

TEST(Adam, OffloadChargesNothing) {
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights w = ModelWeights::init(cfg, 13);
  sim::MemoryTracker mem;
  AdamConfig ac;
  ac.offload = true;
  AdamOptimizer opt(w, ac, &mem);
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_GT(opt.num_params(), 0);
}

TEST(Adam, ParamCountMatchesTensors) {
  ModelConfig cfg = ModelConfig::toy();
  cfg.kv_heads = 2;  // GQA shapes too
  ModelWeights w = ModelWeights::init(cfg, 15);
  AdamOptimizer opt(w, {});
  std::int64_t expect = 2 * cfg.vocab * cfg.d_model;
  expect += cfg.layers * (2 * cfg.d_model * cfg.d_model +
                          2 * cfg.d_model * cfg.d_kv() +
                          2 * cfg.d_model * cfg.d_ff);
  EXPECT_EQ(opt.num_params(), expect);
}

// FNV-1a 64 over the raw bits of a float sequence, chained through `h`.
void fnv_mix_floats(std::uint64_t& h, const float* data, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, data + i, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h = (h ^ ((bits >> (8 * b)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
}

// beta1, beta2 and eps are constants of the optimizer. This hash pins the
// weights and the exported moments after three steps over seeded gradients,
// so changing any of those constants fails here.
TEST(Adam, ThreeStepsMatchPinnedHash) {
  ModelConfig cfg = ModelConfig::toy();
  ModelWeights w = ModelWeights::init(cfg, 17);
  AdamOptimizer opt(w, {});
  Rng rng(19);
  for (int step = 0; step < 3; ++step) {
    ModelGrads g = ModelGrads::zeros(cfg);
    const auto fill = [&rng](Tensor& t) {
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        t.data()[i] = static_cast<float>(rng.next_gaussian());
      }
    };
    for (auto& l : g.layers) {
      for (Tensor* t : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w1, &l.w2}) {
        fill(*t);
      }
    }
    fill(g.w_embed);
    fill(g.w_head);
    opt.step(w, g);
  }

  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const Tensor& t) {
    fnv_mix_floats(h, t.data(), t.numel());
  };
  for (const auto& l : w.layers) {
    for (const Tensor* t : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w1, &l.w2}) {
      mix(*t);
    }
  }
  mix(w.w_embed);
  mix(w.w_head);
  const AdamState st = opt.export_state();
  EXPECT_EQ(st.t, 3);
  fnv_mix_floats(h, st.m.data(), static_cast<std::int64_t>(st.m.size()));
  fnv_mix_floats(h, st.v.data(), static_cast<std::int64_t>(st.v.size()));
  EXPECT_EQ(h, 0x68e439cc25229b58ULL);
}

// FSDP runs Adam on each rank's row-shards. Adam is elementwise, so three
// steps on rank r's shards of the weights and gradients must equal rank r's
// shard of three steps on the full model, bit for bit.
TEST(Adam, ShardedStepsEqualSlicesOfFullSteps) {
  const ModelConfig cfg = ModelConfig::toy();
  const ModelWeights init = ModelWeights::init(cfg, 23);
  Rng rng(29);
  std::vector<ModelGrads> grads;
  for (int step = 0; step < 3; ++step) {
    ModelGrads g = ModelGrads::zeros(cfg);
    for_each_param(
        [&rng](Tensor& t) {
          for (std::int64_t i = 0; i < t.numel(); ++i) {
            t.data()[i] = static_cast<float>(rng.next_gaussian());
          }
        },
        g);
    grads.push_back(std::move(g));
  }
  const AdamConfig ac{0.02f, /*offload=*/true};
  ModelWeights full = init;
  AdamOptimizer full_opt(full, ac);
  for (const ModelGrads& g : grads) {
    full_opt.step(full, g);
  }

  const int world = 4;
  for (int rank = 0; rank < world; ++rank) {
    FsdpShards shards = fsdp_shard(init, world, rank);
    AdamOptimizer opt(shards, ac);
    for (const ModelGrads& g : grads) {
      opt.step(shards, fsdp_shard(g, world, rank));
    }
    const FsdpShards want = fsdp_shard(full, world, rank);
    int mismatched = 0;
    for_each_param(
        [&mismatched](const Tensor& got, const Tensor& ref) {
          const bool same =
              got.shape() == ref.shape() &&
              std::memcmp(got.data(), ref.data(),
                          static_cast<std::size_t>(got.numel()) *
                              sizeof(float)) == 0;
          mismatched += same ? 0 : 1;
        },
        shards, want);
    EXPECT_EQ(mismatched, 0) << "rank " << rank;
  }
}

}  // namespace
}  // namespace burst::model
