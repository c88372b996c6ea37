// Incremental decoding parity: the serving path (chunked prefill into a KV
// cache + append-one-query decode) must reproduce the one-shot full forward,
// including GQA head sharing, RoPE global positions, and the distributed
// prefill front-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "decode_parity.hpp"
#include "kernels/flash_attention.hpp"
#include "kernels/index_map.hpp"
#include "kernels/mask.hpp"
#include "kernels/reference_attention.hpp"
#include "model/kv_cache.hpp"
#include "model/quant_weights.hpp"
#include "model/transformer.hpp"
#include "obs/error.hpp"
#include "parallel/thread_pool.hpp"
#include "pin.hpp"
#include "serve/dist_prefill.hpp"
#include "sim/cluster.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst {
namespace {

using kernels::IndexMap;
using kernels::MaskSpec;
using model::ModelConfig;
using model::ModelWeights;
using model::SequenceKvCache;
using tensor::Rng;
using tensor::Tensor;

ModelConfig serve_toy() {
  ModelConfig cfg = ModelConfig::toy();  // 2 layers, d 32, 4 heads
  cfg.kv_heads = 2;                      // GQA: 2 query heads share a stream
  cfg.use_rope = true;
  return cfg;
}

std::vector<std::int64_t> random_prompt(std::uint64_t seed, std::int64_t n,
                                        std::int64_t vocab) {
  Rng rng(seed);
  std::vector<std::int64_t> p(static_cast<std::size_t>(n));
  for (auto& t : p) {
    t = rng.next_index(vocab);
  }
  return p;
}

// The append-one-query kernel must agree with the blocked tile kernel on the
// same (q, K, V) — it is the same math without the tile machinery.
TEST(FlashDecodeStep, MatchesBlockedKernel) {
  Rng rng(3);
  const std::int64_t nk = 37;
  const std::int64_t d = 16;
  const Tensor q = rng.gaussian(std::int64_t{1}, d);
  const Tensor k = rng.gaussian(nk, d);
  const Tensor v = rng.gaussian(nk, d);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const MaskSpec mask = MaskSpec::causal();

  const auto ref =
      kernels::flash_forward(q, IndexMap::range(nk - 1, 1), k, v,
                             IndexMap::range(0, nk), mask, scale);

  Tensor o(std::int64_t{1}, d);
  kernels::KernelStats stats;
  const float lse = kernels::flash_decode_step(q.view(), k.view(), v.view(),
                                               nk - 1, mask, scale, o.view(),
                                               &stats);
  EXPECT_NEAR(lse, ref.lse[0], 1e-5f);
  EXPECT_LT(tensor::max_abs_diff(o, ref.o), 1e-5f);
  EXPECT_EQ(stats.flops, kernels::attention_pair_flops(
                             static_cast<std::uint64_t>(nk), d));
}

TEST(FlashDecodeStep, FullyMaskedRowIsZeroWithNegInfLse) {
  Rng rng(5);
  const std::int64_t d = 8;
  const Tensor q = rng.gaussian(std::int64_t{1}, d);
  const Tensor k = rng.gaussian(std::int64_t{4}, d);
  const Tensor v = rng.gaussian(std::int64_t{4}, d);
  Tensor o(std::int64_t{1}, d);
  o.fill(std::nanf(""));  // the zero row must be written, not inherited
  kernels::KernelStats stats;
  // Sliding window far behind the query: every key is out of range.
  const float lse = kernels::flash_decode_step(
      q.view(), k.view(), v.view(), /*q_pos=*/10,
      MaskSpec::sliding_window(2), 1.0f, o.view(), &stats);
  EXPECT_TRUE(std::isinf(lse) && lse < 0.0f);
  EXPECT_EQ(stats.flops, 0u);
  for (std::int64_t c = 0; c < d; ++c) {
    // burst-lint: allow(no-naked-float-eq) fully-masked row zeroes its
    // output exactly (0*inf contract)
    EXPECT_EQ(o(0, c), 0.0f);
  }
}

// The decode step against the naive reference under every mask shape the
// serving path can see, at a head dim that is not a multiple of the dot
// product's lane count. The stats count exactly the allowed pairs.
TEST(FlashDecodeStep, MatchesReferenceUnderMasks) {
  Rng rng(29);
  const std::int64_t nk = 45;
  const std::int64_t d = 20;
  const Tensor k = rng.gaussian(nk, d);
  const Tensor v = rng.gaussian(nk, d);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const std::vector<MaskSpec> masks = {
      MaskSpec::causal(), MaskSpec::sliding_window(5),
      MaskSpec::document_from_lengths({12, 20, 13})};
  for (std::size_t mi = 0; mi < masks.size(); ++mi) {
    const MaskSpec& mask = masks[mi];
    for (const std::int64_t q_pos : {std::int64_t{0}, std::int64_t{17}, nk - 1}) {
      const Tensor q = rng.gaussian(std::int64_t{1}, d);
      const auto ref = kernels::reference_attention_forward(
          q, IndexMap::range(q_pos, 1), k, v, IndexMap::range(0, nk), mask,
          scale);
      Tensor o(std::int64_t{1}, d);
      o.fill(std::nanf(""));  // every lane must be overwritten
      kernels::KernelStats stats;
      const float lse = kernels::flash_decode_step(
          q.view(), k.view(), v.view(), q_pos, mask, scale, o.view(), &stats);
      EXPECT_NEAR(lse, ref.lse[0], 1e-5f) << "mask " << mi << " q " << q_pos;
      EXPECT_LT(tensor::max_abs_diff(o, ref.o), 1e-5f)
          << "mask " << mi << " q " << q_pos;
      const std::uint64_t pairs = mask.count_allowed(q_pos, q_pos + 1, 0, nk);
      EXPECT_EQ(stats.flops, pairs * static_cast<std::uint64_t>(4 * d))
          << "mask " << mi << " q " << q_pos;
      EXPECT_EQ(stats.tiles_computed, 1u);
    }
  }
}

// Chunked prefill through the cache == one-shot forward, for any chunking.
TEST(ServeDecode, ChunkedPrefillMatchesFullForward) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 41);
  const MaskSpec mask = MaskSpec::causal();
  const auto prompt = random_prompt(43, 24, cfg.vocab);
  const Tensor ref = model::serial_forward_logits(
      cfg, w, prompt.data(), static_cast<std::int64_t>(prompt.size()), mask);

  for (const std::int64_t chunk : {1, 5, 24}) {
    SequenceKvCache cache = SequenceKvCache::create(cfg, 4);
    Tensor last_hidden;
    for (std::int64_t done = 0; done < 24; done += chunk) {
      const std::int64_t n = std::min<std::int64_t>(chunk, 24 - done);
      last_hidden =
          model::forward_prefill_chunk(cfg, w, cache, prompt.data() + done,
                                       n, mask);
    }
    EXPECT_EQ(cache.len(), 24);
    const Tensor logits = model::head_logits(w, last_hidden);
    // Compare the final row (all a decoder needs) against the reference.
    float err = 0.0f;
    for (std::int64_t j = 0; j < cfg.vocab; ++j) {
      err = std::max(err, std::fabs(logits(last_hidden.rows() - 1, j) -
                                    ref(23, j)));
    }
    EXPECT_LT(err, 1e-4f) << "chunk=" << chunk;
  }
}

// The ISSUE's acceptance bar: chunked prefill + 64 autoregressive decode
// steps reproduce the full-forward argmax at every step.
TEST(ServeDecode, DecodeParity64Tokens) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 47);
  const MaskSpec mask = MaskSpec::causal();
  auto tokens = random_prompt(53, 16, cfg.vocab);  // prompt, then generated

  SequenceKvCache cache = SequenceKvCache::create(cfg, 8);
  // Prefill in uneven chunks (7 + 9) to exercise position offsets.
  model::forward_prefill_chunk(cfg, w, cache, tokens.data(), 7, mask);
  const Tensor hidden =
      model::forward_prefill_chunk(cfg, w, cache, tokens.data() + 7, 9, mask);
  const Tensor prefill_logits =
      model::head_logits(w, hidden.copy_rows(hidden.rows() - 1, 1));
  Tensor row(cfg.vocab);
  for (std::int64_t j = 0; j < cfg.vocab; ++j) {
    row[j] = prefill_logits(0, j);
  }
  std::int64_t next = model::argmax(row);

  for (int step = 0; step < 64; ++step) {
    tokens.push_back(next);
    // Ground truth: full forward over everything decoded so far.
    const Tensor ref = model::serial_forward_logits(
        cfg, w, tokens.data(), static_cast<std::int64_t>(tokens.size()), mask);
    Tensor ref_row(cfg.vocab);
    for (std::int64_t j = 0; j < cfg.vocab; ++j) {
      ref_row[j] = ref(ref.rows() - 1, j);
    }
    const Tensor logits = model::forward_decode(cfg, w, cache, next, mask);
    EXPECT_LT(tensor::max_abs_diff(logits, ref_row), 1e-4f)
        << "step " << step;
    next = model::argmax(logits);
    ASSERT_EQ(next, model::argmax(ref_row)) << "step " << step;
  }
  EXPECT_EQ(cache.len(), 16 + 64);
}

// Distributed chunked prefill (ring attention across 4 devices) assembles
// the same cache and first token as the serial path.
TEST(ServeDecode, DistributedPrefillMatchesSerial) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 59);
  const MaskSpec mask = MaskSpec::causal();
  const auto prompt = random_prompt(61, 32, cfg.vocab);

  SequenceKvCache serial = SequenceKvCache::create(cfg, 8);
  const Tensor hidden = model::forward_prefill_chunk(
      cfg, w, serial, prompt.data(), 32, mask);
  const Tensor logits =
      model::head_logits(w, hidden.copy_rows(31, 1));
  Tensor row(cfg.vocab);
  for (std::int64_t j = 0; j < cfg.vocab; ++j) {
    row[j] = logits(0, j);
  }

  sim::Cluster cluster({sim::Topology::single_node(4)});
  const auto dist =
      serve::distributed_prefill(cluster, cfg, w, prompt, /*block_tokens=*/8,
                                 mask);
  ASSERT_EQ(dist.cache.len(), 32);
  float kv_err = 0.0f;
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    for (std::int64_t h = 0; h < cfg.num_kv_heads(); ++h) {
      const auto dk = dist.cache.k_view(l, h, 32);
      const auto sk = serial.k_view(l, h, 32);
      const auto dv = dist.cache.v_view(l, h, 32);
      const auto sv = serial.v_view(l, h, 32);
      for (std::int64_t r = 0; r < 32; ++r) {
        for (std::int64_t c = 0; c < cfg.head_dim(); ++c) {
          kv_err = std::max(kv_err, std::fabs(dk(r, c) - sk(r, c)));
          kv_err = std::max(kv_err, std::fabs(dv(r, c) - sv(r, c)));
        }
      }
    }
  }
  // Ring merge order differs from the blocked kernel's, so layer-1 inputs
  // carry small float-associativity noise.
  EXPECT_LT(kv_err, 2e-3f);
  EXPECT_EQ(dist.first_token, model::argmax(row));

  // The assembled cache decodes: one step must match the serial cache's.
  SequenceKvCache dist_cache = dist.cache;
  SequenceKvCache serial_cache = serial;
  const Tensor a =
      model::forward_decode(cfg, w, dist_cache, dist.first_token, mask);
  const Tensor b =
      model::forward_decode(cfg, w, serial_cache, dist.first_token, mask);
  EXPECT_LT(tensor::max_abs_diff(a, b), 2e-3f);
}

// The same distributed prefill on a 2x2 double ring: the gather must place
// every shard at its own offset and take the last row from its owner.
TEST(ServeDecode, DistributedPrefillOnDoubleRingMatchesChunkedPrefill) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 59);
  const MaskSpec mask = MaskSpec::causal();
  const auto prompt = random_prompt(61, 32, cfg.vocab);

  SequenceKvCache serial = SequenceKvCache::create(cfg, 8);
  const Tensor hidden = model::forward_prefill_chunk(
      cfg, w, serial, prompt.data(), 32, mask);
  const Tensor logits = model::head_logits(w, hidden.copy_rows(31, 1));

  sim::Cluster cluster({sim::Topology::multi_node(2, 2)});
  const auto dist = serve::distributed_prefill(cluster, cfg, w, prompt,
                                               /*block_tokens=*/8, mask);
  ASSERT_EQ(dist.cache.len(), 32);
  float kv_err = 0.0f;
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    for (std::int64_t h = 0; h < cfg.num_kv_heads(); ++h) {
      const auto dk = dist.cache.k_view(l, h, 32);
      const auto sk = serial.k_view(l, h, 32);
      const auto dv = dist.cache.v_view(l, h, 32);
      const auto sv = serial.v_view(l, h, 32);
      for (std::int64_t r = 0; r < 32; ++r) {
        for (std::int64_t c = 0; c < cfg.head_dim(); ++c) {
          kv_err = std::max(kv_err, std::fabs(dk(r, c) - sk(r, c)));
          kv_err = std::max(kv_err, std::fabs(dv(r, c) - sv(r, c)));
        }
      }
    }
  }
  EXPECT_LT(kv_err, 2e-3f);
  const Tensor dist_logits = model::head_logits(w, dist.last_hidden);
  EXPECT_LT(tensor::max_abs_diff(dist_logits, logits), 2e-3f);
  EXPECT_EQ(dist.first_token, model::argmax(model::logits_row(logits, 0)));
}

// FNV-1a over every cache row of every layer and K/V head, the last hidden
// state and the first token of a distributed prefill.
std::uint64_t prefill_fnv(const ModelConfig& cfg,
                          const serve::DistPrefillResult& r) {
  Fnv h;
  const std::int64_t n = r.cache.len();
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    for (std::int64_t kvh = 0; kvh < cfg.num_kv_heads(); ++kvh) {
      for (const tensor::ConstMatView m :
           {r.cache.k_view(l, kvh, n), r.cache.v_view(l, kvh, n)}) {
        for (std::int64_t row = 0; row < n; ++row) {
          h.bytes(&m(row, 0), static_cast<std::size_t>(m.cols) * sizeof(float));
        }
      }
    }
  }
  h.tensor(r.last_hidden);
  h.bytes(&r.first_token, sizeof r.first_token);
  return h.h;
}

// Distributed prefill's cache, last hidden state and first token, recorded
// when prefill ran a layer loop of its own. They must not move.
TEST(ServeDecode, DistributedPrefillMatchesPinnedParent) {
  struct Case {
    const char* name;
    sim::Topology topo;
    std::int64_t kv_heads;
    std::uint64_t want;
  };
  const std::vector<Case> cases = {
      {"mha/1x1", sim::Topology::single_node(1), 0, 0x2991e854bd2f96cfULL},
      {"mha/1x4", sim::Topology::single_node(4), 0, 0x24b220477223aaf2ULL},
      {"mha/2x2", sim::Topology::multi_node(2, 2), 0, 0x76563f510880cb31ULL},
      {"kv2/2x2", sim::Topology::multi_node(2, 2), 2, 0x367bd66d5f859da9ULL},
  };
  std::vector<Pin> want;
  std::vector<std::uint64_t> got;
  for (const Case& c : cases) {
    ModelConfig cfg = ModelConfig::toy();  // 2 layers, d 32, 4 heads
    cfg.kv_heads = c.kv_heads;
    cfg.use_rope = true;
    const ModelWeights w = ModelWeights::init(cfg, 73);
    const auto prompt = random_prompt(79, 64, cfg.vocab);
    sim::Cluster cluster({c.topo});
    want.push_back({c.name, c.want});
    got.push_back(prefill_fnv(
        cfg, serve::distributed_prefill(cluster, cfg, w, prompt, 8)));
  }
  expect_pins(want, got);
}

// On one device, distributed prefill charges every prompt row's block GEMMs
// (4d² + 4d·d_kv + 4d·d_ff FLOPs per row and layer, what the serving engine
// charges its prefill chunks) plus the attention kernels' FLOPs of a
// one-chunk prefill.
TEST(ServeDecode, DistributedPrefillChargesBlockGemms) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 59);
  const std::int64_t n = 64;
  const auto prompt = random_prompt(61, n, cfg.vocab);

  kernels::KernelStats attn;
  SequenceKvCache cache = SequenceKvCache::create(cfg, 8);
  model::forward_prefill_chunk(cfg, w, cache, prompt.data(), n,
                               MaskSpec::causal(), &attn);

  sim::Cluster::Config cc;
  cc.flops_per_s = 1.0;
  sim::Cluster cluster(cc);
  serve::distributed_prefill(cluster, cfg, w, prompt, 8);
  const auto d = static_cast<std::uint64_t>(cfg.d_model);
  const std::uint64_t linear =
      static_cast<std::uint64_t>(n * cfg.layers) *
      (4 * d * d + 4 * d * static_cast<std::uint64_t>(cfg.d_kv()) +
       4 * d * static_cast<std::uint64_t>(cfg.d_ff));
  EXPECT_EQ(cluster.makespan(), static_cast<double>(linear + attn.flops));
}

TEST(ServeDecode, DistributedPrefillRejectsOutOfVocabToken) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 67);
  sim::Cluster cluster({sim::Topology::single_node(4)});
  for (const std::int64_t bad : {std::int64_t{-1}, cfg.vocab}) {
    auto prompt = random_prompt(71, 32, cfg.vocab);
    prompt[17] = bad;
    EXPECT_THROW(serve::distributed_prefill(cluster, cfg, w, prompt, 8),
                 std::invalid_argument)
        << "token " << bad;
  }
}

// Serving and training run the same block: one-chunk prefill through the
// cache, then the LM head, is bitwise the serial forward on every row.
TEST(ServeDecode, OneChunkPrefillBitwiseEqualsSerialForward) {
  const MaskSpec mask = MaskSpec::causal();
  for (const std::int64_t kv_heads : {0, 2}) {  // MHA, then GQA
    ModelConfig cfg = ModelConfig::toy();
    cfg.kv_heads = kv_heads;
    cfg.use_rope = true;
    const ModelWeights w = ModelWeights::init(cfg, 103);
    const auto prompt = random_prompt(107, 37, cfg.vocab);
    for (const std::size_t workers : {1u, 4u}) {
      parallel::ThreadPool::reset_global(workers);
      const Tensor ref =
          model::serial_forward_logits(cfg, w, prompt.data(), 37, mask);
      SequenceKvCache cache = SequenceKvCache::create(cfg, 8);
      const Tensor got = model::head_logits(
          w, model::forward_prefill_chunk(cfg, w, cache, prompt.data(), 37,
                                          mask));
      ASSERT_EQ(got.rows(), ref.rows());
      ASSERT_EQ(got.cols(), ref.cols());
      for (std::int64_t r = 0; r < ref.rows(); ++r) {
        EXPECT_EQ(std::memcmp(got.data() + r * got.cols(),
                              ref.data() + r * ref.cols(),
                              static_cast<std::size_t>(ref.cols()) *
                                  sizeof(float)),
                  0)
            << "kv_heads=" << kv_heads << " workers=" << workers
            << " row " << r;
      }
    }
  }
  parallel::ThreadPool::reset_global();
}

// One batched decode call over B sequences is bitwise B single-row calls.
TEST(ServeDecode, BatchedDecodeBitwiseEqualsPerRequest) {
  const ModelConfig cfg = testutil::batched_decode_toy();
  const ModelWeights w = ModelWeights::init(cfg, 83);
  const MaskSpec mask = MaskSpec::causal();
  testutil::expect_batched_decode_matches_per_request(
      cfg,
      [&](SequenceKvCache& cache, const std::int64_t* tokens,
          std::int64_t count) {
        model::forward_prefill_chunk(cfg, w, cache, tokens, count, mask);
      },
      [&](const std::vector<SequenceKvCache*>& caches,
          const std::vector<std::int64_t>& tokens,
          kernels::KernelStats* stats) {
        return model::forward_decode(cfg, w, caches, tokens, mask, stats);
      },
      [&](SequenceKvCache& cache, std::int64_t token,
          kernels::KernelStats* stats) {
        return model::forward_decode(cfg, w, cache, token, mask, stats);
      });
}

// Dense serving runs through the one packed weight set at kF32: prefill
// hidden states, LM-head logits and batched decode logits are bitwise the
// dense ModelWeights path, at every pool size.
TEST(ServeDecode, PackedDenseServingBitwiseEqualsDense) {
  const ModelConfig cfg = testutil::batched_decode_toy();
  const ModelWeights w = ModelWeights::init(cfg, 61);
  const model::PackedWeights pw = model::PackedWeights::pack(cfg, w);
  ASSERT_FALSE(pw.quantized());
  const MaskSpec mask = MaskSpec::causal();
  const auto bitwise = [](const Tensor& a, const Tensor& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
               0;
  };
  for (const std::size_t workers : {1u, 4u}) {
    parallel::ThreadPool::reset_global(workers);
    std::vector<SequenceKvCache> dense;
    std::vector<SequenceKvCache> packed;
    std::vector<std::int64_t> tokens;
    for (std::int64_t b = 0; b < 5; ++b) {
      const auto prompt = random_prompt(71 + static_cast<std::uint64_t>(b),
                                        4 + 3 * b, cfg.vocab);
      const auto count = static_cast<std::int64_t>(prompt.size());
      dense.push_back(SequenceKvCache::create(cfg, 8));
      packed.push_back(SequenceKvCache::create(cfg, 8));
      const Tensor h_dense = model::forward_prefill_chunk(
          cfg, w, dense.back(), prompt.data(), count, mask);
      const Tensor h_packed = model::forward_prefill_chunk(
          cfg, w, pw, packed.back(), prompt.data(), count, mask);
      ASSERT_TRUE(bitwise(h_dense, h_packed)) << "prefill row " << b;
      ASSERT_TRUE(bitwise(model::head_logits(w, h_dense),
                          model::head_logits(pw, h_packed)))
          << "head row " << b;
      tokens.push_back(prompt.back());
    }
    std::vector<SequenceKvCache*> dense_ptrs;
    std::vector<SequenceKvCache*> packed_ptrs;
    for (std::size_t b = 0; b < dense.size(); ++b) {
      dense_ptrs.push_back(&dense[b]);
      packed_ptrs.push_back(&packed[b]);
    }
    for (int step = 0; step < 6; ++step) {
      const Tensor l_dense =
          model::forward_decode(cfg, w, dense_ptrs, tokens, mask);
      const Tensor l_packed =
          model::forward_decode(cfg, w, pw, packed_ptrs, tokens, mask);
      ASSERT_TRUE(bitwise(l_dense, l_packed))
          << "step " << step << " pool " << workers;
      for (std::size_t b = 0; b < tokens.size(); ++b) {
        tokens[b] = model::argmax(
            model::logits_row(l_dense, static_cast<std::int64_t>(b)));
      }
    }
  }
  parallel::ThreadPool::reset_global();
}

// Batch preconditions are typed errors raised before any cache is touched.
TEST(ServeDecode, BatchedDecodeRejectsEmptyBatch) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 97);
  EXPECT_THROW(model::forward_decode(cfg, w, std::vector<SequenceKvCache*>{},
                                     std::vector<std::int64_t>{},
                                     MaskSpec::causal()),
               InvariantError);
}

TEST(ServeDecode, BatchedDecodeRejectsSizeMismatch) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 97);
  SequenceKvCache a = SequenceKvCache::create(cfg, 8);
  SequenceKvCache b = SequenceKvCache::create(cfg, 8);
  EXPECT_THROW(model::forward_decode(cfg, w, {&a, &b}, {1}, MaskSpec::causal()),
               InvariantError);
  EXPECT_EQ(a.capacity_tokens(), 0);
  EXPECT_EQ(b.capacity_tokens(), 0);
}

TEST(ServeDecode, BatchedDecodeRejectsDuplicateCache) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 97);
  const MaskSpec mask = MaskSpec::causal();
  SequenceKvCache a = SequenceKvCache::create(cfg, 8);
  SequenceKvCache b = SequenceKvCache::create(cfg, 8);
  const auto prompt = random_prompt(101, 5, cfg.vocab);
  model::forward_prefill_chunk(cfg, w, a, prompt.data(), 5, mask);
  const SequenceKvCache before = a;
  EXPECT_THROW(model::forward_decode(cfg, w, {&a, &b, &a}, {1, 2, 3}, mask),
               InvariantError);
  EXPECT_TRUE(testutil::caches_equal(cfg, a, before));
  EXPECT_EQ(b.capacity_tokens(), 0);
}

TEST(ServeDecode, DistributedPrefillRejectsIndivisiblePrompt) {
  const ModelConfig cfg = serve_toy();
  const ModelWeights w = ModelWeights::init(cfg, 67);
  sim::Cluster cluster({sim::Topology::single_node(4)});
  EXPECT_THROW(serve::distributed_prefill(
                   cluster, cfg, w, random_prompt(71, 30, cfg.vocab), 8),
               std::invalid_argument);
}

}  // namespace
}  // namespace burst
