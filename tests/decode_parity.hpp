// Batched-decode parity check shared by the dense (test_serve_decode) and
// quantized (test_quant_model) suites: one batched decode call over B
// sequences must be bitwise B single-row calls — logits, every cache row and
// the kernel stats.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "kernels/flash_attention.hpp"
#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "model/transformer.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace burst::testutil {

inline bool caches_equal(const model::ModelConfig& cfg,
                         const model::SequenceKvCache& a,
                         const model::SequenceKvCache& b) {
  if (a.len() != b.len()) {
    return false;
  }
  const auto bytes = static_cast<std::size_t>(cfg.head_dim()) * sizeof(float);
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    for (std::int64_t h = 0; h < cfg.num_kv_heads(); ++h) {
      const auto ak = a.k_view(l, h, a.len());
      const auto bk = b.k_view(l, h, b.len());
      const auto av = a.v_view(l, h, a.len());
      const auto bv = b.v_view(l, h, b.len());
      for (std::int64_t r = 0; r < a.len(); ++r) {
        if (std::memcmp(&ak(r, 0), &bk(r, 0), bytes) != 0 ||
            std::memcmp(&av(r, 0), &bv(r, 0), bytes) != 0) {
          return false;
        }
      }
    }
  }
  return true;
}

/// GQA toy: 8 query heads over 4 K/V heads, RoPE on.
inline model::ModelConfig batched_decode_toy() {
  model::ModelConfig cfg = model::ModelConfig::toy();
  cfg.d_model = 64;
  cfg.heads = 8;
  cfg.kv_heads = 4;
  cfg.use_rope = true;
  return cfg;
}

/// Runs 32 greedy decode steps at B in {1, 3, 16} and pool sizes 1 and 4.
/// Row b's prompt has 3 + 5b tokens, so contexts all differ and rows open
/// new KV blocks at different steps of one batch. The batched logits are
/// also bitwise equal across the two pool sizes.
///   prefill(cache, tokens, count)          fills a fresh cache
///   decode_batch(caches, tokens, stats)    -> [B, vocab] logits
///   decode_one(cache, token, stats)        -> [vocab] logits
template <typename Prefill, typename DecodeBatch, typename DecodeOne>
void expect_batched_decode_matches_per_request(const model::ModelConfig& cfg,
                                               Prefill prefill,
                                               DecodeBatch decode_batch,
                                               DecodeOne decode_one) {
  using model::SequenceKvCache;
  constexpr std::int64_t kBlock = 8;
  const auto vocab_bytes = static_cast<std::size_t>(cfg.vocab) * sizeof(float);
  std::vector<tensor::Tensor> pool1_logits;  // every batched call at pool 1
  std::size_t call = 0;
  for (const std::size_t workers : {1u, 4u}) {
    parallel::ThreadPool::reset_global(workers);
    for (const std::int64_t batch : {1, 3, 16}) {
      std::vector<SequenceKvCache> batched;
      std::vector<std::int64_t> tokens;
      for (std::int64_t b = 0; b < batch; ++b) {
        tensor::Rng rng(89 + static_cast<std::uint64_t>(b));
        std::vector<std::int64_t> prompt(static_cast<std::size_t>(3 + 5 * b));
        for (auto& t : prompt) {
          t = rng.next_index(cfg.vocab);
        }
        batched.push_back(SequenceKvCache::create(cfg, kBlock));
        prefill(batched.back(), prompt.data(),
                static_cast<std::int64_t>(prompt.size()));
        tokens.push_back(prompt.back());
      }
      std::vector<SequenceKvCache> single = batched;
      std::vector<SequenceKvCache*> ptrs;
      for (auto& c : batched) {
        ptrs.push_back(&c);
      }
      std::int64_t mixed_steps = 0;
      for (int step = 0; step < 32; ++step) {
        // Steps where only some rows open a new KV block.
        std::int64_t opening = 0;
        for (const auto& c : batched) {
          opening += c.len() % kBlock == 0 ? 1 : 0;
        }
        mixed_steps += opening > 0 && opening < batch ? 1 : 0;

        kernels::KernelStats stats_batched;
        const tensor::Tensor logits = decode_batch(ptrs, tokens, &stats_batched);
        ASSERT_EQ(logits.rows(), batch);
        ASSERT_EQ(logits.cols(), cfg.vocab);
        if (workers == 1) {
          pool1_logits.push_back(logits);
        } else {
          ASSERT_LT(call, pool1_logits.size());
          ASSERT_EQ(std::memcmp(logits.data(), pool1_logits[call].data(),
                                static_cast<std::size_t>(batch) * vocab_bytes),
                    0)
              << "B=" << batch << " step " << step << " pool " << workers
              << " differs from pool 1";
          ++call;
        }
        kernels::KernelStats stats_single;
        for (std::int64_t b = 0; b < batch; ++b) {
          const auto i = static_cast<std::size_t>(b);
          const tensor::Tensor row =
              decode_one(single[i], tokens[i], &stats_single);
          ASSERT_EQ(std::memcmp(logits.data() + b * cfg.vocab, row.data(),
                                vocab_bytes),
                    0)
              << "B=" << batch << " row " << b << " step " << step
              << " pool " << workers;
          tokens[i] = model::argmax(row);
        }
        EXPECT_EQ(stats_batched.flops, stats_single.flops);
        EXPECT_EQ(stats_batched.tiles_computed, stats_single.tiles_computed);
        EXPECT_EQ(stats_batched.tiles_skipped, stats_single.tiles_skipped);
      }
      for (std::size_t i = 0; i < batched.size(); ++i) {
        EXPECT_TRUE(caches_equal(cfg, batched[i], single[i]))
            << "B=" << batch << " row " << i << " pool " << workers;
      }
      if (batch > 1) {
        EXPECT_GT(mixed_steps, 0) << "B=" << batch;
      }
    }
  }
  parallel::ThreadPool::reset_global();
}

}  // namespace burst::testutil
