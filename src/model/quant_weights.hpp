// Quantized serving weights (DESIGN.md section 16).
//
// QuantizedWeights holds the serving weights packed: every projection
// matrix and the LM head packed once into tensor::PackedB operands at
// `cfg.quant.weights` (kF32, kQ8_0, or kQ4_0), so steady-state prefill/decode
// GEMMs stream the 4-8x smaller panels straight through the
// dequantize-in-microkernel path with zero per-call packing or heap
// traffic. The embedding stays an fp32 lookup table (a gather, not a GEMM).
// The forwards below run the one block (model/block.hpp) over
// QuantizedWeights::Layer, which rounds activations to bf16 at layer
// boundaries (after the embedding and after each block's residual output)
// — the paper's communication-boundary precision — while attention and GEMM
// accumulation stay fp32. Training is untouched: gradients and the
// training-path weights remain fp32; cfg.quant.weights == kBf16 (the
// default) means "serve the dense functional path" and nothing here is
// built.
//
// Determinism: the packed GEMMs inherit gemm()'s deterministic row-block
// partitioning, so quantized prefill/decode is bitwise reproducible across
// thread-pool sizes, and chunked prefill matches one-shot prefill exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/flash_attention.hpp"
#include "kernels/mask.hpp"
#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "model/transformer.hpp"
#include "tensor/gemm.hpp"

namespace burst::model {

struct QuantizedWeights {
  struct Layer {
    tensor::PackedB wq, wk, wv, wo, w1, w2;
  };
  std::vector<Layer> layers;
  /// op(B) = W_head^T [d, vocab]: logits = h @ W_head^T in one packed GEMM
  /// (or one aligned column window per vocab tile).
  tensor::PackedB w_head_t;
  tensor::DType dtype = tensor::DType::kF32;

  /// Packs every projection and the LM head at cfg.quant.weights.
  static QuantizedWeights pack(const ModelConfig& cfg, const ModelWeights& w);

  /// Total packed weight bytes at the serving dtype (scales + payload for
  /// quantized formats; the fp32 embedding table is excluded). Compare with
  /// the same weights at bf16/fp32 for the serving memory delta.
  std::uint64_t model_bytes() const;
};

/// LM-head logits over the packed head: [n, d] -> [n, vocab].
tensor::Tensor head_logits_q(const QuantizedWeights& qw,
                             const tensor::Tensor& h);

/// forward_prefill_chunk over the packed weights: same cache/mask contract,
/// activations rounded to bf16 at layer boundaries.
tensor::Tensor forward_prefill_chunk_q(const ModelConfig& cfg,
                                       const ModelWeights& w,
                                       const QuantizedWeights& qw,
                                       SequenceKvCache& cache,
                                       const std::int64_t* tokens,
                                       std::int64_t count,
                                       const kernels::MaskSpec& mask,
                                       kernels::KernelStats* stats = nullptr);

/// The batched forward_decode over the packed weights: same batch contract
/// and errors, returns next-token logits [B, vocab].
tensor::Tensor forward_decode_q(const ModelConfig& cfg, const ModelWeights& w,
                                const QuantizedWeights& qw,
                                const std::vector<SequenceKvCache*>& caches,
                                const std::vector<std::int64_t>& tokens,
                                const kernels::MaskSpec& mask,
                                kernels::KernelStats* stats = nullptr);

/// Single-sequence quantized decode step (the B = 1 batch): logits [vocab].
tensor::Tensor forward_decode_q(const ModelConfig& cfg, const ModelWeights& w,
                                const QuantizedWeights& qw,
                                SequenceKvCache& cache, std::int64_t token,
                                const kernels::MaskSpec& mask,
                                kernels::KernelStats* stats = nullptr);

}  // namespace burst::model
