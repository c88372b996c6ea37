// Functional LLaMA-style toy transformer (Eq. 2-3 of the paper):
//   H = ATTN(X) + X,  Y = FFN(H) + H  per block, stacked `layers` times,
// followed by the LM head + cross-entropy loss. Multi-head attention splits
// d_model into `heads` column slices. FFN is a two-matrix ReLU MLP (the
// paper's Eq. 2 does not prescribe gating; FLOP formulas in perfmodel use
// the gated LLaMA counts).
//
// Training has one layer forward/backward, the distributed step's
// (dist_model.hpp); the one-device entry points below run it on one rank.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/flash_attention.hpp"
#include "kernels/mask.hpp"
#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "tensor/tensor.hpp"

namespace burst::model {

struct LayerWeights {
  tensor::Tensor wq, wk, wv, wo;  // [d, d]
  tensor::Tensor w1;              // [d, d_ff]
  tensor::Tensor w2;              // [d_ff, d]
};

/// The model's parameters. Gradients and FSDP shards (model/fsdp.hpp) hold
/// one tensor per parameter too, so they are the same type.
struct ModelWeights {
  std::vector<LayerWeights> layers;
  tensor::Tensor w_embed;  // [vocab, d]
  tensor::Tensor w_head;   // [vocab, d]

  static ModelWeights init(const ModelConfig& cfg, std::uint64_t seed);
  /// Every parameter shaped for `cfg`, all zero (a gradient accumulator).
  static ModelWeights zeros(const ModelConfig& cfg);
  void add(const ModelWeights& other);
  /// Largest |x| across all parameters (for comparisons / step sanity).
  float max_abs() const;
};

using LayerGrads = LayerWeights;
using ModelGrads = ModelWeights;

/// The parameter order, stated once: per layer wq, wk, wv, wo, w1, w2, then
/// w_embed, then w_head. It fixes the Adam state layout, the training
/// snapshot bytes and the gradient all-reduce sequence, so every
/// per-parameter loop walks through these two visitors. Each call passes
/// the same parameter of `l` and of every `ls` (which may be any struct
/// with the six layer members, e.g. PackedWeights::Layer).
template <typename Fn, typename L, typename... Ls>
void for_each_layer_param(Fn&& fn, L& l, Ls&... ls) {
  fn(l.wq, ls.wq...);
  fn(l.wk, ls.wk...);
  fn(l.wv, ls.wv...);
  fn(l.wo, ls.wo...);
  fn(l.w1, ls.w1...);
  fn(l.w2, ls.w2...);
}

/// Every layer's parameters in order, then w_embed, then w_head. All
/// models must have the same number of layers.
template <typename Fn, typename W, typename... Ws>
void for_each_param(Fn&& fn, W& w, Ws&... ws) {
  assert(((ws.layers.size() == w.layers.size()) && ...));
  for (std::size_t l = 0; l < w.layers.size(); ++l) {
    for_each_layer_param(fn, w.layers[l], ws.layers[l]...);
  }
  fn(w.w_embed, ws.w_embed...);
  fn(w.w_head, ws.w_head...);
}

/// Number of scalar parameters in `w`.
std::int64_t param_count(const ModelWeights& w);

/// SGD update: w -= lr * g.
void apply_sgd(ModelWeights& w, const ModelGrads& g, float lr);

struct TrainStepResult {
  double loss = 0.0;  // global mean next-token cross-entropy
  ModelGrads grads;
};

// The one-device entry points run the distributed step (dist_model.hpp),
// or its forward-only pass, on one simulated device: contiguous rows, no
// recompute, the fused LM head.

/// Forward+backward for next-token prediction. `tokens` holds N+1 token ids
/// (float-encoded); rows 0..N-1 are inputs, 1..N targets. Throws
/// std::invalid_argument as dist_train_step does.
TrainStepResult serial_train_step(const ModelConfig& cfg,
                                  const ModelWeights& w,
                                  const tensor::Tensor& tokens,
                                  const kernels::MaskSpec& mask);

/// Forward-only mean loss: serial_train_step's loss, bit for bit.
double serial_loss(const ModelConfig& cfg, const ModelWeights& w,
                   const tensor::Tensor& tokens,
                   const kernels::MaskSpec& mask);

/// Forward-only per-prediction-row cross-entropy (row i predicts token
/// i+1). Used to score synthetic long-context tasks on exactly the rows the
/// task determines (model/data.hpp).
std::vector<double> serial_per_row_loss(const ModelConfig& cfg,
                                        const ModelWeights& w,
                                        const tensor::Tensor& tokens,
                                        const kernels::MaskSpec& mask);

// --- incremental decoding (serving path) ----------------------------------

/// LM-head logits for final-layer hidden states: [n, d] -> [n, vocab].
tensor::Tensor head_logits(const ModelWeights& w, const tensor::Tensor& h);

/// Index of the largest entry of a rank-1 tensor (greedy decoding).
std::int64_t argmax(const tensor::Tensor& logits);

/// One-shot full forward over `count` token ids on one device, like the
/// entry points above: [count, vocab] logits. The serving-path ground truth:
/// chunked prefill + decode must reproduce its rows
/// (tests/test_serve_decode.cpp).
tensor::Tensor serial_forward_logits(const ModelConfig& cfg,
                                     const ModelWeights& w,
                                     const std::int64_t* tokens,
                                     std::int64_t count,
                                     const kernels::MaskSpec& mask);

/// Runs `count` prompt tokens at global positions [cache.len(),
/// cache.len()+count) through the stack, appending every layer's K/V rows to
/// `cache`, and returns the final-layer hidden states [count, d]. Each row
/// attends to the whole cached prefix under `mask`. Capacity is reserved
/// internally if the caller has not already done so (the serving engine
/// reserves first to charge its block pool). `stats`, when given,
/// accumulates attention-kernel FLOPs after mask skipping.
tensor::Tensor forward_prefill_chunk(const ModelConfig& cfg,
                                     const ModelWeights& w,
                                     SequenceKvCache& cache,
                                     const std::int64_t* tokens,
                                     std::int64_t count,
                                     const kernels::MaskSpec& mask,
                                     kernels::KernelStats* stats = nullptr);

/// Batched decode step over B independent sequences: row b appends
/// `tokens[b]`'s K/V to `*caches[b]` at position caches[b]->len() and row b
/// of the result holds its next-token logits ([B, vocab]). Every projection,
/// the FFN and the LM head run once on [B, d], so each weight streams once
/// per call whatever B is; RoPE, the K/V append and the append-one-query
/// attention (kernels::flash_decode_step) run per row against that row's own
/// cache and position. Each output row is bitwise-equal to decoding that
/// sequence alone (DESIGN.md "Continuous batching"). Throws
/// burst::InvariantError on an empty batch, a caches/tokens size mismatch, a
/// null cache, or a cache listed twice.
tensor::Tensor forward_decode(const ModelConfig& cfg, const ModelWeights& w,
                              const std::vector<SequenceKvCache*>& caches,
                              const std::vector<std::int64_t>& tokens,
                              const kernels::MaskSpec& mask,
                              kernels::KernelStats* stats = nullptr);

/// Single-sequence decode step (the B = 1 batch): returns logits [vocab].
tensor::Tensor forward_decode(const ModelConfig& cfg, const ModelWeights& w,
                              SequenceKvCache& cache, std::int64_t token,
                              const kernels::MaskSpec& mask,
                              kernels::KernelStats* stats = nullptr);

/// Row `r` of a [n, vocab] logits matrix as a rank-1 [vocab] tensor.
tensor::Tensor logits_row(const tensor::Tensor& logits, std::int64_t r);

}  // namespace burst::model
