// LLaMA-style model configurations (Section 4.1 of the paper).
#pragma once

#include <cstdint>

#include "tensor/dtype.hpp"

namespace burst::model {

/// Storage dtype for the quantized serving path (DESIGN.md section 16).
/// Weight byte accounting always follows this enum.
struct QuantSpec {
  /// Weight storage for serving/inference. kBf16 (the default) keeps the
  /// dense fp32 functional path with bf16 byte accounting — the pre-quant
  /// behavior. kF32/kQ8_0/kQ4_0 route the projection weights and the
  /// W_head through prepacked tensor::PackedB operands
  /// (dequantize-inside-the-microkernel), with bf16 rounding at layer
  /// activation boundaries.
  tensor::DType weights = tensor::DType::kBf16;
};

struct ModelConfig {
  std::int64_t layers = 2;
  std::int64_t d_model = 64;
  std::int64_t heads = 4;
  /// Grouped-query attention: number of K/V heads (0 -> == heads, i.e.
  /// vanilla MHA). Must divide `heads`. GQA is an *extension* beyond the
  /// paper: LLaMA-2/3 use it, and it changes the Ring-vs-Burst backward
  /// communication trade-off because only K/V shrink (see
  /// bench_ablation_gqa).
  std::int64_t kv_heads = 0;
  std::int64_t vocab = 256;
  std::int64_t d_ff = 172;  // LLaMA uses ~2.7x d_model
  /// Weight storage dtype for serving (see QuantSpec).
  QuantSpec quant;
  /// Apply rotary position embeddings to Q/K (LLaMA-style). Under context
  /// parallelism the rotation uses *global* token positions from the
  /// shard's IndexMap.
  bool use_rope = false;

  /// Storage bytes per element of the training dtype, bf16 as in the paper
  /// (what activations, gradients, and wire transfers charge).
  double bytes_per_el() const {
    return tensor::dtype_bytes_per_el(tensor::DType::kBf16);
  }
  /// Storage bytes per element of the KV cache, bf16 as in the paper's
  /// setup (drives paged-KV byte accounting).
  double kv_bytes_per_el() const {
    return tensor::dtype_bytes_per_el(tensor::DType::kBf16);
  }
  /// Average storage bytes per weight element at the serving dtype
  /// (quantized dtypes amortize per-block scales).
  double weight_bytes_per_el() const {
    return tensor::dtype_bytes_per_el(quant.weights);
  }

  std::int64_t head_dim() const { return d_model / heads; }
  std::int64_t num_kv_heads() const { return kv_heads > 0 ? kv_heads : heads; }
  /// Width of the K/V projections: kv_heads * head_dim.
  std::int64_t d_kv() const { return num_kv_heads() * head_dim(); }
  /// Query heads sharing one K/V head.
  std::int64_t group_size() const { return heads / num_kv_heads(); }

  /// Attention projections (Q, O: d^2 each; K, V: d*d_kv each) + gated FFN.
  std::int64_t params_per_layer() const {
    return 2 * d_model * d_model + 2 * d_model * d_kv() +
           3 * d_model * d_ff;
  }

  /// Embedding + transformer stack + LM head (untied, like LLaMA).
  std::int64_t param_count() const {
    return layers * params_per_layer() + 2 * vocab * d_model;
  }

  /// The paper's 7B setting: 32 layers, 32 heads, 4096 d, 32K vocab.
  static ModelConfig llama7b() {
    ModelConfig c;
    c.layers = 32;
    c.d_model = 4096;
    c.heads = 32;
    c.vocab = 32000;
    c.d_ff = 11008;
    return c;
  }

  /// The paper's 14B setting: 40 layers, 40 heads, 5120 d, 120K vocab.
  static ModelConfig llama14b() {
    ModelConfig c;
    c.layers = 40;
    c.d_model = 5120;
    c.heads = 40;
    c.vocab = 120000;
    c.d_ff = 13824;
    return c;
  }

  /// Toy configuration for functional end-to-end tests.
  static ModelConfig toy() {
    ModelConfig c;
    c.layers = 2;
    c.d_model = 32;
    c.heads = 4;
    c.vocab = 64;
    c.d_ff = 48;
    return c;
  }
};

}  // namespace burst::model
