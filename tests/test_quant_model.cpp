// Quantized serving path (DESIGN.md section 16): prepacked Q8_0/Q4_0
// weights through prefill/decode and the LM head. The quantized
// forward must be exactly self-consistent (chunked == one-shot, bitwise,
// per dtype) and track the fp32 functional path within the format's error
// budget; the engine must serve a quantized QuantSpec end to end with a
// smaller weight stream and a faster roofline.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "decode_parity.hpp"
#include "kernels/mask.hpp"
#include "model/kv_cache.hpp"
#include "model/quant_weights.hpp"
#include "model/transformer.hpp"
#include "serve/engine.hpp"
#include "tensor/dtype.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst {
namespace {

using kernels::MaskSpec;
using model::ModelConfig;
using model::ModelWeights;
using model::PackedWeights;
using model::SequenceKvCache;
using tensor::DType;
using tensor::Rng;
using tensor::Tensor;

ModelConfig quant_toy(DType weights) {
  ModelConfig cfg = ModelConfig::toy();  // 2 layers, d 32, 4 heads
  cfg.kv_heads = 2;
  cfg.use_rope = true;
  cfg.quant.weights = weights;
  return cfg;
}

std::vector<std::int64_t> prompt_of(std::uint64_t seed, std::int64_t n,
                                    std::int64_t vocab) {
  Rng rng(seed);
  std::vector<std::int64_t> p(static_cast<std::size_t>(n));
  for (auto& t : p) {
    t = rng.next_index(vocab);
  }
  return p;
}

// Chunked prefill through the quantized path must reproduce one-shot
// quantized prefill bitwise — quantization must not break the KV-cache
// position invariants, and the packed GEMMs are deterministic.
TEST(QuantModel, ChunkedPrefillBitwiseMatchesOneShot) {
  const MaskSpec mask = MaskSpec::causal();
  const auto prompt = prompt_of(7, 24, 64);
  for (const DType dt : {DType::kF32, DType::kQ8_0, DType::kQ4_0}) {
    const ModelConfig cfg = quant_toy(dt);
    const ModelWeights w = ModelWeights::init(cfg, 11);
    const PackedWeights qw = PackedWeights::pack(cfg, w);

    SequenceKvCache one = SequenceKvCache::create(cfg, 16);
    const Tensor h_one = model::forward_prefill_chunk(
        cfg, w, qw, one, prompt.data(), 24, mask);

    SequenceKvCache two = SequenceKvCache::create(cfg, 16);
    model::forward_prefill_chunk(cfg, w, qw, two, prompt.data(), 10, mask);
    const Tensor h_two = model::forward_prefill_chunk(
        cfg, w, qw, two, prompt.data() + 10, 14, mask);

    // Rows 10..23 of the one-shot hidden == the second chunk's rows.
    for (std::int64_t r = 0; r < 14; ++r) {
      for (std::int64_t c = 0; c < cfg.d_model; ++c) {
        ASSERT_EQ(h_two(r, c), h_one(10 + r, c))
            << tensor::dtype_name(dt) << " row " << r;
      }
    }
    // And decode continues identically from both caches.
    const Tensor l_one = model::logits_row(
        model::forward_decode(cfg, w, qw, {&one}, {3}, mask), 0);
    const Tensor l_two = model::logits_row(
        model::forward_decode(cfg, w, qw, {&two}, {3}, mask), 0);
    EXPECT_FLOAT_EQ(tensor::max_abs_diff(l_one, l_two), 0.0f)
        << tensor::dtype_name(dt);
  }
}

// One batched quantized decode call over B sequences is bitwise B
// single-row calls: the packed GEMMs keep each row's arithmetic independent
// of the batch too.
TEST(QuantModel, BatchedDecodeBitwiseEqualsPerRequest) {
  ModelConfig cfg = testutil::batched_decode_toy();
  cfg.quant.weights = DType::kQ8_0;
  const ModelWeights w = ModelWeights::init(cfg, 83);
  const PackedWeights qw = PackedWeights::pack(cfg, w);
  const MaskSpec mask = MaskSpec::causal();
  testutil::expect_batched_decode_matches_per_request(
      cfg,
      [&](SequenceKvCache& cache, const std::int64_t* tokens,
          std::int64_t count) {
        model::forward_prefill_chunk(cfg, w, qw, cache, tokens, count, mask);
      },
      [&](const std::vector<SequenceKvCache*>& caches,
          const std::vector<std::int64_t>& tokens,
          kernels::KernelStats* stats) {
        return model::forward_decode(cfg, w, qw, caches, tokens, mask,
                                       stats);
      },
      [&](SequenceKvCache& cache, std::int64_t token,
          kernels::KernelStats* stats) {
        return model::logits_row(
            model::forward_decode(cfg, w, qw, {&cache}, {token}, mask, stats),
            0);
      });
}

// The quantized forward tracks the fp32 functional path within the format
// error budget on a toy model (logit-level agreement; Q4 is coarse but the
// toy logits stay O(1)).
TEST(QuantModel, QuantizedLogitsTrackDenseWithinBudget) {
  const MaskSpec mask = MaskSpec::causal();
  const auto prompt = prompt_of(9, 16, 64);
  const ModelConfig dense_cfg = quant_toy(DType::kBf16);
  const ModelWeights w = ModelWeights::init(dense_cfg, 13);

  SequenceKvCache dense_cache = SequenceKvCache::create(dense_cfg, 16);
  const Tensor h_dense = model::forward_prefill_chunk(
      dense_cfg, w, dense_cache, prompt.data(), 16, mask);
  const Tensor logits_dense = model::head_logits(w, h_dense);

  struct Case {
    DType dt;
    float budget;
  };
  float err_q8 = 0.0f;
  float err_q4 = 0.0f;
  for (const Case c : {Case{DType::kQ8_0, 0.1f}, Case{DType::kQ4_0, 1.0f}}) {
    const ModelConfig cfg = quant_toy(c.dt);
    const PackedWeights qw = PackedWeights::pack(cfg, w);
    SequenceKvCache cache = SequenceKvCache::create(cfg, 16);
    const Tensor h = model::forward_prefill_chunk(cfg, w, qw, cache,
                                                    prompt.data(), 16, mask);
    const Tensor logits = model::head_logits(qw, h);
    const float err = tensor::max_abs_diff(logits, logits_dense);
    EXPECT_LT(err, c.budget) << tensor::dtype_name(c.dt);
    (c.dt == DType::kQ8_0 ? err_q8 : err_q4) = err;
  }
  // The coarser format really is coarser end to end.
  EXPECT_GT(err_q4, err_q8);
}

// Packed byte accounting orders as the formats promise.
TEST(QuantModel, PackedBytesShrinkWithFormat) {
  const ModelConfig cfg = quant_toy(DType::kQ8_0);
  const ModelWeights w = ModelWeights::init(cfg, 17);
  const auto bytes = [&](DType dt) {
    ModelConfig c = cfg;
    c.quant.weights = dt;
    return PackedWeights::pack(c, w).model_bytes();
  };
  const std::uint64_t f32 = bytes(DType::kF32);
  const std::uint64_t q8 = bytes(DType::kQ8_0);
  const std::uint64_t q4 = bytes(DType::kQ4_0);
  EXPECT_LT(q8, f32);
  EXPECT_LT(q4, q8);
  // 36/128 and 20/128 of fp32, within panel-padding slack on the toy dims
  // (the K edge pads short 32-blocks, inflating the ratio a little).
  EXPECT_NEAR(static_cast<double>(q8) / static_cast<double>(f32), 36.0 / 128,
              0.03);
  EXPECT_NEAR(static_cast<double>(q4) / static_cast<double>(f32), 20.0 / 128,
              0.03);
}

// End to end: the engine serves a Q4_0 QuantSpec to completion, reports the
// packed weight footprint, and finishes no later than the bf16 run — the
// roofline's weight-stream term shrinks 3.2x.
TEST(QuantServe, EngineServesQ4AndBeatsBf16Makespan) {
  const auto run_once = [](DType weights) {
    const ModelConfig cfg = quant_toy(weights);
    static ModelWeights w = ModelWeights::init(quant_toy(DType::kBf16), 23);
    serve::EngineConfig ecfg;
    ecfg.sched.policy = serve::BatchPolicy::kContinuous;
    ecfg.sched.token_budget = 64;
    ecfg.sched.chunk_tokens = 16;
    ecfg.hbm_bytes_per_s = 1e9;  // make the weight stream matter
    serve::Engine engine(cfg, w, ecfg);
    for (std::uint64_t s = 0; s < 3; ++s) {
      engine.add_request(prompt_of(s, 12, cfg.vocab), 4);
    }
    struct Out {
      serve::ServeReport rep;
      std::uint64_t packed_bytes;
    };
    Out out{serve::run_on_single_device(engine), engine.packed_weight_bytes()};
    return out;
  };

  const auto bf16 = run_once(DType::kBf16);
  const auto q4 = run_once(DType::kQ4_0);

  ASSERT_EQ(q4.rep.results.size(), 3u);
  for (const auto& r : q4.rep.results) {
    EXPECT_EQ(r.outcome, serve::Outcome::kCompleted);
    EXPECT_EQ(r.generated.size(), 4u);
  }
  EXPECT_EQ(bf16.packed_bytes, 0u);  // dense path: nothing packed
  EXPECT_GT(q4.packed_bytes, 0u);
  EXPECT_LT(q4.rep.metrics.makespan_s, bf16.rep.metrics.makespan_s);
}

}  // namespace
}  // namespace burst
