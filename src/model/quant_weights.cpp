#include "model/quant_weights.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "kernels/rope.hpp"
#include "tensor/ops.hpp"

namespace burst::model {

using kernels::IndexMap;
using kernels::MaskSpec;
using tensor::PackedB;
using tensor::Tensor;
using tensor::Trans;

QuantizedWeights QuantizedWeights::pack(const ModelConfig& cfg,
                                        const ModelWeights& w) {
  QuantizedWeights q;
  q.dtype = cfg.quant.weights;
  q.layers.reserve(w.layers.size());
  for (const LayerWeights& lw : w.layers) {
    Layer l;
    // Every projection is consumed as x @ W, so op(B) = W (no transpose).
    l.wq = PackedB::pack(lw.wq.view(), Trans::No, q.dtype);
    l.wk = PackedB::pack(lw.wk.view(), Trans::No, q.dtype);
    l.wv = PackedB::pack(lw.wv.view(), Trans::No, q.dtype);
    l.wo = PackedB::pack(lw.wo.view(), Trans::No, q.dtype);
    l.w1 = PackedB::pack(lw.w1.view(), Trans::No, q.dtype);
    l.w2 = PackedB::pack(lw.w2.view(), Trans::No, q.dtype);
    q.layers.push_back(std::move(l));
  }
  // The head is consumed as h @ W_head^T: resolving the transpose at pack
  // time also groups quantization blocks along d per vocab word.
  q.w_head_t = PackedB::pack(w.w_head.view(), Trans::Yes, q.dtype);
  assert(q.w_head_t.n() == cfg.vocab && q.w_head_t.k() == cfg.d_model);
  (void)cfg;
  return q;
}

std::uint64_t QuantizedWeights::model_bytes() const {
  std::uint64_t total = w_head_t.model_bytes();
  for (const Layer& l : layers) {
    total += l.wq.model_bytes() + l.wk.model_bytes() + l.wv.model_bytes() +
             l.wo.model_bytes() + l.w1.model_bytes() + l.w2.model_bytes();
  }
  return total;
}

namespace {

Tensor embed_ids(const ModelConfig& cfg, const ModelWeights& w,
                 const std::int64_t* tokens, std::int64_t count) {
  Tensor x(count, cfg.d_model);
  for (std::int64_t i = 0; i < count; ++i) {
    assert(tokens[i] >= 0 && tokens[i] < cfg.vocab);
    for (std::int64_t c = 0; c < cfg.d_model; ++c) {
      x(i, c) = w.w_embed(tokens[i], c);
    }
  }
  return x;
}

constexpr float kNegInfF = -std::numeric_limits<float>::infinity();

}  // namespace

Tensor head_logits_q(const QuantizedWeights& qw, const Tensor& h) {
  return tensor::packed_matmul(h, qw.w_head_t);
}

Tensor forward_prefill_chunk_q(const ModelConfig& cfg, const ModelWeights& w,
                               const QuantizedWeights& qw,
                               SequenceKvCache& cache,
                               const std::int64_t* tokens, std::int64_t count,
                               const MaskSpec& mask,
                               kernels::KernelStats* stats) {
  assert(count > 0);
  assert(qw.layers.size() == static_cast<std::size_t>(cfg.layers));
  cache.reserve(count);
  const std::int64_t pos0 = cache.len();
  const std::int64_t total = pos0 + count;
  const std::int64_t dh = cfg.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const IndexMap qmap = IndexMap::range(pos0, count);
  const IndexMap kmap = IndexMap::range(0, total);
  const std::int64_t group = cfg.group_size();
  Tensor x = embed_ids(cfg, w, tokens, count);
  // bf16 at the activation boundary: what a real bf16 serving stack feeds
  // the first block.
  tensor::round_bf16_inplace(x);
  Tensor qh(count, dh);
  Tensor o(count, dh);
  Tensor lse(count);
  Tensor attn(count, cfg.d_model);
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    const QuantizedWeights::Layer& lw =
        qw.layers[static_cast<std::size_t>(l)];
    Tensor q_all = tensor::packed_matmul(x, lw.wq);
    Tensor k_all = tensor::packed_matmul(x, lw.wk);
    Tensor v_all = tensor::packed_matmul(x, lw.wv);
    for (std::int64_t kvh = 0; kvh < cfg.num_kv_heads(); ++kvh) {
      Tensor kh = tensor::copy_cols(k_all, kvh * dh, dh);
      if (cfg.use_rope) {
        kernels::apply_rope_inplace(kh, qmap);
      }
      cache.put(l, kvh, kh, tensor::copy_cols(v_all, kvh * dh, dh));
    }
    attn.fill(0.0f);
    for (std::int64_t h = 0; h < cfg.heads; ++h) {
      tensor::copy_cols_into(q_all, h * dh, qh);
      if (cfg.use_rope) {
        kernels::apply_rope_inplace(qh, qmap);
      }
      const std::int64_t kvh = h / group;
      o.fill(0.0f);
      lse.fill(kNegInfF);
      kernels::flash_forward_partial(qh.view(), qmap,
                                     cache.k_view(l, kvh, total),
                                     cache.v_view(l, kvh, total), kmap, mask,
                                     scale, o.view(), lse, stats);
      tensor::set_cols(attn, h * dh, o);
    }
    Tensor a = tensor::packed_matmul(attn, lw.wo);
    Tensor hres = tensor::add(a, x);
    Tensor u = tensor::relu(tensor::packed_matmul(hres, lw.w1));
    x = tensor::packed_matmul(u, lw.w2);
    tensor::add_inplace(x, hres);
    // Layer boundary: round the block output like the wire/bf16 store.
    tensor::round_bf16_inplace(x);
  }
  cache.commit(count);
  return x;
}

Tensor forward_decode_q(const ModelConfig& cfg, const ModelWeights& w,
                        const QuantizedWeights& qw,
                        const std::vector<SequenceKvCache*>& caches,
                        const std::vector<std::int64_t>& tokens,
                        const MaskSpec& mask, kernels::KernelStats* stats) {
  assert(qw.layers.size() == static_cast<std::size_t>(cfg.layers));
  begin_decode_batch(caches, tokens);
  const auto rows = static_cast<std::int64_t>(tokens.size());
  Tensor x = embed_ids(cfg, w, tokens.data(), rows);
  tensor::round_bf16_inplace(x);
  Tensor attn(rows, cfg.d_model);
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    const QuantizedWeights::Layer& lw =
        qw.layers[static_cast<std::size_t>(l)];
    const Tensor q_all = tensor::packed_matmul(x, lw.wq);
    const Tensor k_all = tensor::packed_matmul(x, lw.wk);
    const Tensor v_all = tensor::packed_matmul(x, lw.wv);
    decode_attention(cfg, l, caches, q_all, k_all, v_all, mask, attn, stats);
    Tensor a = tensor::packed_matmul(attn, lw.wo);
    Tensor hres = tensor::add(a, x);
    Tensor u = tensor::relu(tensor::packed_matmul(hres, lw.w1));
    x = tensor::packed_matmul(u, lw.w2);
    tensor::add_inplace(x, hres);
    tensor::round_bf16_inplace(x);
  }
  for (SequenceKvCache* cache : caches) {
    cache->commit(1);
  }
  return head_logits_q(qw, x);
}

Tensor forward_decode_q(const ModelConfig& cfg, const ModelWeights& w,
                        const QuantizedWeights& qw, SequenceKvCache& cache,
                        std::int64_t token, const MaskSpec& mask,
                        kernels::KernelStats* stats) {
  return logits_row(
      forward_decode_q(cfg, w, qw, {&cache}, {token}, mask, stats), 0);
}

}  // namespace burst::model
