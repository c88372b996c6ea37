#include "model/transformer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "kernels/flash_attention.hpp"
#include "kernels/rope.hpp"
#include "model/block.hpp"
#include "model/quant_weights.hpp"
#include "obs/error.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst::model {

using kernels::IndexMap;
using kernels::MaskSpec;
using tensor::Tensor;

ModelWeights ModelWeights::init(const ModelConfig& cfg, std::uint64_t seed) {
  tensor::Rng rng(seed);
  const float ws = 1.0f / std::sqrt(static_cast<float>(cfg.d_model));
  ModelWeights w;
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    LayerWeights lw;
    lw.wq = rng.gaussian(cfg.d_model, cfg.d_model, ws);
    lw.wk = rng.gaussian(cfg.d_model, cfg.d_kv(), ws);
    lw.wv = rng.gaussian(cfg.d_model, cfg.d_kv(), ws);
    lw.wo = rng.gaussian(cfg.d_model, cfg.d_model, ws);
    lw.w1 = rng.gaussian(cfg.d_model, cfg.d_ff, ws);
    lw.w2 = rng.gaussian(cfg.d_ff, cfg.d_model,
                         1.0f / std::sqrt(static_cast<float>(cfg.d_ff)));
    w.layers.push_back(std::move(lw));
  }
  w.w_embed = rng.gaussian(cfg.vocab, cfg.d_model, 0.5f);
  w.w_head = rng.gaussian(cfg.vocab, cfg.d_model, ws);
  return w;
}

ModelWeights ModelWeights::zeros(const ModelConfig& cfg) {
  ModelWeights g;
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    LayerWeights lg;
    lg.wq = Tensor::zeros(cfg.d_model, cfg.d_model);
    lg.wk = Tensor::zeros(cfg.d_model, cfg.d_kv());
    lg.wv = Tensor::zeros(cfg.d_model, cfg.d_kv());
    lg.wo = Tensor::zeros(cfg.d_model, cfg.d_model);
    lg.w1 = Tensor::zeros(cfg.d_model, cfg.d_ff);
    lg.w2 = Tensor::zeros(cfg.d_ff, cfg.d_model);
    g.layers.push_back(std::move(lg));
  }
  g.w_embed = Tensor::zeros(cfg.vocab, cfg.d_model);
  g.w_head = Tensor::zeros(cfg.vocab, cfg.d_model);
  return g;
}

void ModelWeights::add(const ModelWeights& other) {
  for_each_param(
      [](Tensor& t, const Tensor& o) { tensor::add_inplace(t, o); }, *this,
      other);
}

float ModelWeights::max_abs() const {
  float mx = 0.0f;
  for_each_param(
      [&mx](const Tensor& t) {
        for (std::int64_t i = 0; i < t.numel(); ++i) {
          mx = std::max(mx, std::fabs(t.data()[i]));
        }
      },
      *this);
  return mx;
}

std::int64_t param_count(const ModelWeights& w) {
  std::int64_t n = 0;
  for_each_param([&n](const Tensor& t) { n += t.numel(); }, w);
  return n;
}

void apply_sgd(ModelWeights& w, const ModelGrads& g, float lr) {
  for_each_param(
      [lr](Tensor& t, const Tensor& grad) { tensor::axpy(-lr, grad, t); }, w,
      g);
}

Tensor head_logits(const ModelWeights& w, const Tensor& h) {
  return tensor::matmul_nt(h, w.w_head);
}

Tensor head_logits(const PackedWeights& pw, const Tensor& h) {
  return tensor::packed_matmul(h, pw.w_head_t);
}

std::int64_t argmax(const Tensor& logits) {
  assert(logits.numel() > 0);
  std::int64_t best = 0;
  for (std::int64_t i = 1; i < logits.numel(); ++i) {
    if (logits.data()[i] > logits.data()[best]) {
      best = i;
    }
  }
  return best;
}

Tensor logits_row(const Tensor& logits, std::int64_t r) {
  Tensor out(logits.cols());
  const float* src = logits.data() + r * logits.cols();
  std::copy(src, src + logits.cols(), out.data());
  return out;
}

namespace {

constexpr float kNegInfF = -std::numeric_limits<float>::infinity();

// Sums per-head or per-row stats into `stats` (when given) after a join.
void add_stats(kernels::KernelStats* stats,
               const std::vector<kernels::KernelStats>& parts) {
  if (stats == nullptr) {
    return;
  }
  for (const kernels::KernelStats& p : parts) {
    stats->flops += p.flops;
    stats->tiles_computed += p.tiles_computed;
    stats->tiles_skipped += p.tiles_skipped;
  }
}

template <class Layer>
Tensor prefill_chunk(const ModelConfig& cfg, const ModelWeights& w,
                     const std::vector<Layer>& layers, bool bf16_boundary,
                     SequenceKvCache& cache, const std::int64_t* tokens,
                     std::int64_t count, const MaskSpec& mask,
                     kernels::KernelStats* stats) {
  assert(count > 0);
  assert(layers.size() == static_cast<std::size_t>(cfg.layers));
  cache.reserve(count);
  const std::int64_t pos0 = cache.len();
  const std::int64_t total = pos0 + count;
  const std::int64_t dh = cfg.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const IndexMap qmap = IndexMap::range(pos0, count);
  const IndexMap kmap = IndexMap::range(0, total);
  const auto group = static_cast<std::size_t>(cfg.group_size());
  const auto kv_heads = static_cast<std::size_t>(cfg.num_kv_heads());
  const auto heads = static_cast<std::size_t>(cfg.heads);
  // The chunk's RoPE angles (null without RoPE), shared by every layer and
  // head.
  std::unique_ptr<const kernels::RopeTable> rope;
  if (cfg.use_rope) {
    rope = std::make_unique<kernels::RopeTable>(qmap, dh);
  }
  Tensor x = embed(w, tokens, count, bf16_boundary);
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    const Layer& lw = layers[static_cast<std::size_t>(l)];
    x = block_output(lw, block_hidden(lw, x, [&](const Tensor& q_all,
                                                 const Tensor& k_all,
                                                 const Tensor& v_all) {
      // The chunk's K/V rows must land in the cache before attention so
      // every query row can read keys up to its own position. One chunk per
      // K/V head, each writing only its own cache streams.
      parallel::parallel_for(0, kv_heads, 1, [&](std::size_t h0,
                                                 std::size_t h1) {
        for (std::size_t kvh = h0; kvh < h1; ++kvh) {
          const std::int64_t col = static_cast<std::int64_t>(kvh) * dh;
          Tensor kh = tensor::copy_cols(k_all, col, dh);
          if (rope) {
            kernels::apply_rope_inplace(kh, *rope);
          }
          cache.put(l, static_cast<std::int64_t>(kvh), kh,
                    tensor::copy_cols(v_all, col, dh));
        }
      });
      // Then one chunk per query head, writing its own column block of attn
      // and its own stats; the stats are summed after the join.
      Tensor attn(count, cfg.d_model);
      std::vector<kernels::KernelStats> head_stats(heads);
      parallel::parallel_for(0, heads, 1, [&](std::size_t h0,
                                              std::size_t h1) {
        // Head-sized scratch reused across this chunk's heads.
        Tensor qh(count, dh);
        Tensor o(count, dh);
        Tensor lse(count);
        for (std::size_t h = h0; h < h1; ++h) {
          const std::int64_t col = static_cast<std::int64_t>(h) * dh;
          tensor::copy_cols_into(q_all, col, qh);
          if (rope) {
            kernels::apply_rope_inplace(qh, *rope);
          }
          const auto kvh = static_cast<std::int64_t>(h / group);
          o.fill(0.0f);
          lse.fill(kNegInfF);
          kernels::flash_forward_partial(
              qh.view(), qmap, cache.k_view(l, kvh, total),
              cache.v_view(l, kvh, total), kmap, mask, scale, o.view(), lse,
              &head_stats[h]);
          tensor::set_cols(attn, col, o);
        }
      });
      add_stats(stats, head_stats);
      return attn;
    }), bf16_boundary);
  }
  cache.commit(count);
  return x;
}

// Checks a decode batch's preconditions (see forward_decode) and reserves
// one row in every cache.
void begin_decode_batch(const std::vector<SequenceKvCache*>& caches,
                        const std::vector<std::int64_t>& tokens) {
  if (caches.empty()) {
    throw InvariantError("decode batch is empty");
  }
  if (caches.size() != tokens.size()) {
    throw InvariantError("decode batch has " + std::to_string(caches.size()) +
                         " caches but " + std::to_string(tokens.size()) +
                         " tokens");
  }
  if (std::find(caches.begin(), caches.end(), nullptr) != caches.end()) {
    throw InvariantError("decode batch has a null cache");
  }
  // Two rows appending into one cache would write the same K/V row.
  std::vector<const SequenceKvCache*> sorted(caches.begin(), caches.end());
  std::sort(sorted.begin(), sorted.end(), std::less<>());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw InvariantError("decode batch lists one cache twice");
  }
  for (SequenceKvCache* cache : caches) {
    cache->reserve(1);
  }
}

// The per-row half of decode layer `layer`: for each row b, RoPE-rotates
// row b of `k_all` by row b of `rope` (the angles at caches[b]->len(); null
// without RoPE), appends it and row b of `v_all` to *caches[b], then attends
// row b of `q_all` over that cache into row b of the result ([B, d_model]).
// One parallel_for chunk per row: a row touches only its own cache, its own
// output row and its own stats, which are summed after the join, so the
// result is the same for every pool size.
Tensor decode_attention(const ModelConfig& cfg, std::int64_t layer,
                        const std::vector<SequenceKvCache*>& caches,
                        const kernels::RopeTable* rope, const Tensor& q_all,
                        const Tensor& k_all, const Tensor& v_all,
                        const MaskSpec& mask, kernels::KernelStats* stats) {
  const std::int64_t dh = cfg.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t group = cfg.group_size();
  Tensor attn(q_all.rows(), cfg.d_model);
  std::vector<kernels::KernelStats> row_stats(caches.size());
  // dst[0, :] = src[row, col:col+dh].
  const auto slice = [dh](const Tensor& src, std::int64_t row,
                          std::int64_t col, Tensor& dst) {
    const float* s = src.data() + row * src.cols() + col;
    std::copy(s, s + dh, dst.data());
  };
  parallel::parallel_for(0, caches.size(), 1, [&](std::size_t b0,
                                                  std::size_t b1) {
    // Reused across this chunk's rows and heads.
    Tensor qh(1, dh);
    Tensor kh(1, dh);
    Tensor vh(1, dh);
    for (std::size_t b = b0; b < b1; ++b) {
      SequenceKvCache& cache = *caches[b];
      const auto row = static_cast<std::int64_t>(b);
      const std::int64_t pos = cache.len();
      for (std::int64_t kvh = 0; kvh < cfg.num_kv_heads(); ++kvh) {
        slice(k_all, row, kvh * dh, kh);
        if (rope != nullptr) {
          kernels::apply_rope_inplace(kh, *rope, row);
        }
        slice(v_all, row, kvh * dh, vh);
        cache.put(layer, kvh, kh, vh);
      }
      for (std::int64_t h = 0; h < cfg.heads; ++h) {
        slice(q_all, row, h * dh, qh);
        if (rope != nullptr) {
          kernels::apply_rope_inplace(qh, *rope, row);
        }
        const std::int64_t kvh = h / group;
        const tensor::MatView o_row{attn.data() + row * attn.cols() + h * dh,
                                    1, dh, attn.cols()};
        kernels::flash_decode_step(
            qh.view(), cache.k_view(layer, kvh, pos + 1),
            cache.v_view(layer, kvh, pos + 1), pos, mask, scale, o_row,
            &row_stats[b]);
      }
    }
  });
  add_stats(stats, row_stats);
  return attn;
}

// Final-layer hidden states [B, d] of one batched decode step.
template <class Layer>
Tensor decode_batch(const ModelConfig& cfg, const ModelWeights& w,
                    const std::vector<Layer>& layers, bool bf16_boundary,
                    const std::vector<SequenceKvCache*>& caches,
                    const std::vector<std::int64_t>& tokens,
                    const MaskSpec& mask, kernels::KernelStats* stats) {
  assert(layers.size() == static_cast<std::size_t>(cfg.layers));
  begin_decode_batch(caches, tokens);
  // Row b's RoPE angles at its cache's length, shared by every layer.
  std::unique_ptr<const kernels::RopeTable> rope;
  if (cfg.use_rope) {
    std::vector<std::pair<std::int64_t, std::int64_t>> rows;
    for (const SequenceKvCache* cache : caches) {
      rows.emplace_back(cache->len(), 1);
    }
    rope = std::make_unique<kernels::RopeTable>(
        IndexMap::segments(std::move(rows)), cfg.head_dim());
  }
  Tensor x = embed(w, tokens.data(), static_cast<std::int64_t>(tokens.size()),
                   bf16_boundary);
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    const Layer& lw = layers[static_cast<std::size_t>(l)];
    x = block_output(lw, block_hidden(lw, x, [&](const Tensor& q_all,
                                                 const Tensor& k_all,
                                                 const Tensor& v_all) {
      return decode_attention(cfg, l, caches, rope.get(), q_all, k_all, v_all,
                              mask, stats);
    }), bf16_boundary);
  }
  for (SequenceKvCache* cache : caches) {
    cache->commit(1);
  }
  return x;
}

}  // namespace

Tensor forward_prefill_chunk(const ModelConfig& cfg, const ModelWeights& w,
                             SequenceKvCache& cache, const std::int64_t* tokens,
                             std::int64_t count, const MaskSpec& mask,
                             kernels::KernelStats* stats) {
  return prefill_chunk(cfg, w, w.layers, false, cache, tokens, count, mask,
                       stats);
}

Tensor forward_prefill_chunk(const ModelConfig& cfg, const ModelWeights& w,
                             const PackedWeights& pw, SequenceKvCache& cache,
                             const std::int64_t* tokens, std::int64_t count,
                             const MaskSpec& mask,
                             kernels::KernelStats* stats) {
  return prefill_chunk(cfg, w, pw.layers, pw.quantized(), cache, tokens,
                       count, mask, stats);
}

Tensor forward_decode(const ModelConfig& cfg, const ModelWeights& w,
                      const std::vector<SequenceKvCache*>& caches,
                      const std::vector<std::int64_t>& tokens,
                      const MaskSpec& mask, kernels::KernelStats* stats) {
  return head_logits(
      w, decode_batch(cfg, w, w.layers, false, caches, tokens, mask, stats));
}

Tensor forward_decode(const ModelConfig& cfg, const ModelWeights& w,
                      const PackedWeights& pw,
                      const std::vector<SequenceKvCache*>& caches,
                      const std::vector<std::int64_t>& tokens,
                      const MaskSpec& mask, kernels::KernelStats* stats) {
  return head_logits(pw, decode_batch(cfg, w, pw.layers, pw.quantized(),
                                      caches, tokens, mask, stats));
}

Tensor forward_decode(const ModelConfig& cfg, const ModelWeights& w,
                      SequenceKvCache& cache, std::int64_t token,
                      const MaskSpec& mask, kernels::KernelStats* stats) {
  return logits_row(forward_decode(cfg, w, {&cache}, {token}, mask, stats), 0);
}

}  // namespace burst::model
