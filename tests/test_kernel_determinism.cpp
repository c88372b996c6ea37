// Bitwise determinism across thread-pool sizes: the packed GEMM and the
// flash-attention kernels (and the fused LM head) partition work at fixed
// chunk boundaries and keep a fixed per-element arithmetic order, and the
// serial transformer block
// gives each attention head its own chunk and reduces GQA dK/dV in a fixed
// order, so the exact same bits must come out for any worker count
// (including a BURST_THREADS override).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "kernels/flash_attention.hpp"
#include "kernels/lm_head.hpp"
#include "model/block.hpp"
#include "model/optimizer.hpp"
#include "model/transformer.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst {
namespace {

using kernels::IndexMap;
using kernels::MaskSpec;
using tensor::Rng;
using tensor::Tensor;
using tensor::Trans;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

Tensor gemm_result() {
  Rng rng(83);
  Tensor a = rng.gaussian(150, 70, 1.0f);
  Tensor b = rng.gaussian(70, 90, 1.0f);
  Tensor c(150, 90);
  tensor::gemm(a.view(), Trans::No, b.view(), Trans::Yes,
               c.view(), 1.25f, 0.0f);
  return c;
}

struct AttnOut {
  Tensor o, lse, dq, dk, dv;
};

AttnOut attention_result(const MaskSpec& mask, const IndexMap& id) {
  Rng rng(89);
  const std::int64_t n = id.size();
  const std::int64_t d = 16;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  Tensor q = rng.gaussian(n, d, 1.0f);
  Tensor k = rng.gaussian(n, d, 1.0f);
  Tensor v = rng.gaussian(n, d, 1.0f);
  Tensor d_out = rng.gaussian(n, d, 1.0f);

  AttnOut out;
  auto fwd = kernels::flash_forward(q, id, k, v, id, mask, scale);
  Tensor dvec = kernels::attention_dvec(d_out, fwd.o);
  out.dq = Tensor::zeros(n, d);
  out.dk = Tensor::zeros(n, d);
  out.dv = Tensor::zeros(n, d);
  kernels::flash_backward_partial(q, id, k, v, id, mask, scale, d_out, fwd.lse,
                                  dvec, out.dq, out.dk, out.dv);
  out.o = std::move(fwd.o);
  out.lse = std::move(fwd.lse);
  return out;
}

// The fused LM head (and its recompute variant) at the model's 32 x 64
// tiles: each strip's logits and dW are split by vocab tile and its dh by
// row blocks of d, so a split that followed the pool would change bits.
// v = 300 ends on a short tile and n = 100 on a short strip.
kernels::LmHeadResult lm_head_result(bool recompute) {
  Rng rng(103);
  const std::int64_t n = 100;
  const std::int64_t v = 300;
  const std::int64_t d = 72;
  const Tensor h = rng.gaussian(n, d, 0.7f);
  const Tensor w = rng.gaussian(v, d, 0.7f);
  std::vector<std::int64_t> targets;
  for (std::int64_t i = 0; i < n; ++i) {
    targets.push_back(rng.next_index(v));
  }
  return recompute
             ? kernels::tiled_recompute_lm_head_loss(h, w, targets, 32, 64)
             : kernels::fused_lm_head_loss(h, w, targets, 32, 64);
}

// One serial train step with RoPE and 8 query heads. With 2 K/V heads each
// group reduces four heads' dK/dV, so a reduction order that followed the
// thread schedule would change bits.
model::TrainStepResult train_step_result(std::int64_t kv_heads) {
  model::ModelConfig cfg = model::ModelConfig::toy();
  cfg.d_model = 64;
  cfg.heads = 8;
  cfg.kv_heads = kv_heads;
  cfg.use_rope = true;
  const model::ModelWeights w = model::ModelWeights::init(cfg, 97);
  Rng rng(101);
  const Tensor tokens = rng.token_ids(151, cfg.vocab);
  return model::serial_train_step(cfg, w, tokens, MaskSpec::causal());
}

std::vector<const Tensor*> grad_tensors(const model::ModelGrads& g) {
  std::vector<const Tensor*> out;
  for (const model::LayerGrads& l : g.layers) {
    for (const Tensor* t : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w1, &l.w2}) {
      out.push_back(t);
    }
  }
  out.push_back(&g.w_embed);
  out.push_back(&g.w_head);
  return out;
}

TEST(KernelDeterminism, GemmBitwiseIdenticalAcrossPoolSizes) {
  parallel::ThreadPool::reset_global(1);
  const Tensor base = gemm_result();
  for (std::size_t workers : {2u, 8u}) {
    parallel::ThreadPool::reset_global(workers);
    EXPECT_TRUE(bitwise_equal(gemm_result(), base))
        << "pool size " << workers;
  }
  parallel::ThreadPool::reset_global();
}

TEST(KernelDeterminism, GemmBitwiseIdenticalUnderBurstThreadsEnv) {
  parallel::ThreadPool::reset_global(1);
  const Tensor base = gemm_result();
  ASSERT_EQ(setenv("BURST_THREADS", "2", /*overwrite=*/1), 0);
  parallel::ThreadPool::reset_global();
  ASSERT_EQ(parallel::ThreadPool::global().size(), 2u);
  EXPECT_TRUE(bitwise_equal(gemm_result(), base));
  ASSERT_EQ(unsetenv("BURST_THREADS"), 0);
  parallel::ThreadPool::reset_global();
}

TEST(KernelDeterminism, AttentionBitwiseIdenticalAcrossPoolSizes) {
  // 95 rows as one contiguous range of a 95-token sequence, and as a
  // two-segment zigzag shard of a 190-token sequence whose 32-row tiles
  // straddle the segment boundary.
  const IndexMap range = IndexMap::range(0, 95);
  const IndexMap zigzag = IndexMap::segments({{0, 48}, {143, 47}});
  for (const bool zig : {false, true}) {
    for (const bool document : {false, true}) {
      const std::int64_t s = zig ? 2 : 1;  // sequence length / 95
      const MaskSpec mask =
          document ? MaskSpec::document_from_lengths({40 * s, 25 * s, 30 * s})
                   : MaskSpec::causal();
      const IndexMap& map = zig ? zigzag : range;
      parallel::ThreadPool::reset_global(1);
      const AttnOut base = attention_result(mask, map);
      EXPECT_NE(base.lse[0], kNegInf);
      for (std::size_t workers : {2u, 8u}) {
        parallel::ThreadPool::reset_global(workers);
        const AttnOut got = attention_result(mask, map);
        EXPECT_TRUE(bitwise_equal(got.o, base.o)) << workers;
        EXPECT_TRUE(bitwise_equal(got.lse, base.lse)) << workers;
        EXPECT_TRUE(bitwise_equal(got.dq, base.dq)) << workers;
        EXPECT_TRUE(bitwise_equal(got.dk, base.dk)) << workers;
        EXPECT_TRUE(bitwise_equal(got.dv, base.dv)) << workers;
      }
    }
  }
  parallel::ThreadPool::reset_global();
}

TEST(KernelDeterminism, FusedLmHeadBitwiseAcrossPoolSizes) {
  for (const bool recompute : {false, true}) {
    parallel::ThreadPool::reset_global(1);
    const kernels::LmHeadResult base = lm_head_result(recompute);
    for (std::size_t workers : {2u, 4u}) {
      parallel::ThreadPool::reset_global(workers);
      const kernels::LmHeadResult got = lm_head_result(recompute);
      EXPECT_EQ(std::memcmp(&got.loss, &base.loss, sizeof got.loss), 0)
          << recompute << " " << workers;
      EXPECT_TRUE(bitwise_equal(got.dh, base.dh))
          << recompute << " " << workers;
      EXPECT_TRUE(bitwise_equal(got.dw, base.dw))
          << recompute << " " << workers;
    }
  }
  parallel::ThreadPool::reset_global();
}

TEST(KernelDeterminism, SerialTrainStepBitwiseAcrossPoolSizes) {
  for (const std::int64_t kv_heads : {0, 2}) {  // MHA, then GQA
    parallel::ThreadPool::reset_global(1);
    const model::TrainStepResult base = train_step_result(kv_heads);
    const std::vector<const Tensor*> want = grad_tensors(base.grads);
    for (std::size_t workers : {2u, 3u, 4u}) {
      parallel::ThreadPool::reset_global(workers);
      const model::TrainStepResult got = train_step_result(kv_heads);
      EXPECT_EQ(std::memcmp(&got.loss, &base.loss, sizeof(double)), 0)
          << "kv_heads " << kv_heads << ", pool size " << workers;
      const std::vector<const Tensor*> have = grad_tensors(got.grads);
      ASSERT_EQ(have.size(), want.size());
      for (std::size_t i = 0; i < have.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(*have[i], *want[i]))
            << "kv_heads " << kv_heads << ", pool size " << workers
            << ", gradient tensor " << i;
      }
    }
  }
  parallel::ThreadPool::reset_global();
}

// Every pooled elementwise pass and Adam, at sizes below, at and above the
// split constant (and one that is not a multiple of it), at pool sizes 1-4:
// each element keeps one writer and one expression, so the bits equal a
// plain loop's at every pool size.
TEST(KernelDeterminism, ElementwiseAndAdamBitwiseAcrossPoolSizes) {
  constexpr std::int64_t kChunk = tensor::kElementwiseChunk;
  const std::vector<std::int64_t> sizes = {kChunk - 1, kChunk, kChunk + 1,
                                           3 * kChunk + 123};
  for (const std::int64_t n : sizes) {
    Rng rng(static_cast<std::uint64_t>(n));
    const Tensor a = rng.gaussian(1, n, 1.0f);
    const Tensor b = rng.gaussian(1, n, 1.0f);
    Tensor add_ref = a;
    Tensor relu_ref = a;
    Tensor relu_bwd_ref = b;
    Tensor scale_ref = a;
    Tensor bf16_ref = a;
    for (std::int64_t i = 0; i < n; ++i) {
      add_ref.data()[i] = a.data()[i] + b.data()[i];
      relu_ref.data()[i] = std::max(a.data()[i], 0.0f);
      if (a.data()[i] <= 0.0f) {
        relu_bwd_ref.data()[i] = 0.0f;
      }
      scale_ref.data()[i] = a.data()[i] * 0.37f;
    }
    // bf16 rounding is pinned to its own one-way result.
    parallel::ThreadPool::reset_global(1);
    tensor::round_bf16_inplace(bf16_ref);
    // Eight heads of eight columns, about `n` elements in all.
    std::vector<Tensor> heads;
    for (int h = 0; h < 8; ++h) {
      heads.push_back(rng.gaussian(n / 64 + 1, 8, 1.0f));
    }
    Tensor concat_ref(heads.front().rows(), 64);
    for (std::size_t h = 0; h < heads.size(); ++h) {
      tensor::set_cols(concat_ref, static_cast<std::int64_t>(h) * 8, heads[h]);
    }
    for (std::size_t workers : {1u, 2u, 3u, 4u}) {
      parallel::ThreadPool::reset_global(workers);
      const std::string at = "n " + std::to_string(n) + ", pool size " +
                             std::to_string(workers);
      Tensor y = a;
      tensor::add_inplace(y, b);
      EXPECT_TRUE(bitwise_equal(y, add_ref)) << "add_inplace, " << at;
      EXPECT_TRUE(bitwise_equal(tensor::add(a, b), add_ref)) << "add, " << at;
      EXPECT_TRUE(bitwise_equal(tensor::relu(a), relu_ref)) << "relu, " << at;
      EXPECT_TRUE(bitwise_equal(tensor::relu_backward(b, a), relu_bwd_ref))
          << "relu_backward, " << at;
      Tensor s = a;
      tensor::scale_inplace(s, 0.37f);
      EXPECT_TRUE(bitwise_equal(s, scale_ref)) << "scale_inplace, " << at;
      Tensor r = a;
      tensor::round_bf16_inplace(r);
      EXPECT_TRUE(bitwise_equal(r, bf16_ref)) << "round_bf16_inplace, " << at;
      EXPECT_TRUE(bitwise_equal(model::concat_heads(heads, 64), concat_ref))
          << "concat_heads, " << at;
    }
  }

  // Adam over models below and at one chunk (they run on the caller), and
  // one whose tensors straddle and exceed it.
  const auto adam_result = [](std::int64_t embed, std::int64_t head) {
    model::ModelWeights w;
    Rng rng(static_cast<std::uint64_t>(embed + head));
    w.w_embed = rng.gaussian(1, embed, 0.5f);
    w.w_head = rng.gaussian(1, head, 0.5f);
    model::AdamOptimizer opt(w, {});
    for (int step = 0; step < 3; ++step) {
      model::ModelGrads g;
      g.w_embed = rng.gaussian(1, embed, 1.0f);
      g.w_head = rng.gaussian(1, head, 1.0f);
      opt.step(w, g);
    }
    return std::pair{std::move(w), opt.export_state()};
  };
  for (const auto& [embed, head] :
       {std::pair{kChunk / 2, kChunk / 2 - 1},
        std::pair{kChunk - 1, std::int64_t{1}},
        std::pair{3 * kChunk + 123, kChunk + 1}}) {
    parallel::ThreadPool::reset_global(1);
    const auto [base_w, base_state] = adam_result(embed, head);
    for (std::size_t workers : {2u, 3u, 4u}) {
      parallel::ThreadPool::reset_global(workers);
      const auto [w, state] = adam_result(embed, head);
      const std::string at = "Adam " + std::to_string(embed) + " + " +
                             std::to_string(head) + ", pool size " +
                             std::to_string(workers);
      EXPECT_TRUE(bitwise_equal(w.w_embed, base_w.w_embed)) << at;
      EXPECT_TRUE(bitwise_equal(w.w_head, base_w.w_head)) << at;
      EXPECT_EQ(state.m, base_state.m) << at;
      EXPECT_EQ(state.v, base_state.v) << at;
    }
  }
  parallel::ThreadPool::reset_global();
}

}  // namespace
}  // namespace burst
