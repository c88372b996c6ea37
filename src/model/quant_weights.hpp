// The serving weight set (DESIGN.md section 16).
//
// PackedWeights holds every projection matrix and the LM head packed once
// into tensor::PackedB operands, so steady-state prefill/decode GEMMs stream
// the panels with zero per-call packing or heap traffic. The serving engine
// always builds one; its QuantSpec (`cfg.quant.weights`) picks the dtype
// and the activation precision:
//   - kBf16 (the default, the dense functional path): panels at kF32, whose
//     GEMMs are bitwise gemm() on the dense weights, and fp32 activations;
//   - kF32, kQ8_0, kQ4_0: panels at that dtype through the
//     dequantize-in-microkernel path, with activations rounded to bf16 at
//     layer boundaries (after the embedding and after each block's residual
//     output) — the paper's communication-boundary precision — while
//     attention and GEMM accumulation stay fp32.
// The embedding stays an fp32 lookup table (a gather, not a GEMM), and the
// forwards below run the one block (model/block.hpp). Training is untouched:
// gradients and the training-path weights remain fp32.
//
// Determinism: the packed GEMMs inherit gemm()'s deterministic partitioning,
// so packed prefill/decode is bitwise reproducible across thread-pool sizes,
// and chunked prefill matches one-shot prefill exactly.
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

struct PackedWeights {
  struct Layer {
    tensor::PackedB wq, wk, wv, wo, w1, w2;
  };
  std::vector<Layer> layers;
  /// op(B) = W_head^T [d, vocab]: logits = h @ W_head^T in one packed GEMM
  /// (or one aligned column window per vocab tile).
  tensor::PackedB w_head_t;
  /// The serving spec the set was packed for (cfg.quant.weights).
  tensor::DType spec = tensor::DType::kBf16;

  /// Packs every projection and the LM head for cfg.quant.weights: at kF32
  /// under kBf16, otherwise at that dtype.
  static PackedWeights pack(const ModelConfig& cfg, const ModelWeights& w);

  /// True for every spec but kBf16: the quantized serving path, whose
  /// forwards round activations to bf16 at layer boundaries.
  bool quantized() const { return spec != tensor::DType::kBf16; }

  /// Total packed weight bytes at the packed dtype (scales + payload for
  /// quantized formats; the fp32 embedding table is excluded). Compare with
  /// the same weights at bf16/fp32 for the serving memory delta.
  std::uint64_t model_bytes() const;
};

/// LM-head logits over the packed head: [n, d] -> [n, vocab].
tensor::Tensor head_logits(const PackedWeights& pw, const tensor::Tensor& h);

/// forward_prefill_chunk over the packed set: same cache/mask contract.
tensor::Tensor forward_prefill_chunk(const ModelConfig& cfg,
                                     const ModelWeights& w,
                                     const PackedWeights& pw,
                                     SequenceKvCache& cache,
                                     const std::int64_t* tokens,
                                     std::int64_t count,
                                     const kernels::MaskSpec& mask,
                                     kernels::KernelStats* stats = nullptr);

/// The batched forward_decode over the packed set: same batch contract and
/// errors, returns next-token logits [B, vocab].
tensor::Tensor forward_decode(const ModelConfig& cfg, const ModelWeights& w,
                              const PackedWeights& pw,
                              const std::vector<SequenceKvCache*>& caches,
                              const std::vector<std::int64_t>& tokens,
                              const kernels::MaskSpec& mask,
                              kernels::KernelStats* stats = nullptr);

}  // namespace burst::model
