// FLOP accounting for LLaMA-style transformer training steps.
//
// Conventions: a GEMM of A[m,k] @ B[k,n] costs 2mkn FLOPs; backward of a
// GEMM costs 2x forward (two GEMMs). Attention score/PV work is counted per
// unmasked (q, k) pair: forward 4d FLOPs/pair (QK^T + PV), backward 10d
// (five pair-level GEMMs), matching the kernel instrumentation in
// src/kernels. "Model FLOPs" exclude recomputation — MFU is defined against
// useful work only, so checkpointing lowers MFU exactly as in the paper.
#pragma once

#include <cstdint>

#include "core/checkpoint.hpp"
#include "model/config.hpp"

namespace burst::perfmodel {

struct FlopsBreakdown {
  double linear_fwd = 0.0;     // projections + FFN, forward
  double linear_bwd = 0.0;
  double attn_fwd = 0.0;       // pairwise attention forward
  double attn_bwd = 0.0;
  double lm_head_fwd = 0.0;
  double lm_head_bwd = 0.0;
  double recompute = 0.0;      // checkpointing overhead (not model FLOPs)

  double model_total() const {
    return linear_fwd + linear_bwd + attn_fwd + attn_bwd + lm_head_fwd +
           lm_head_bwd;
  }
};

/// Unmasked attention pairs for a causal mask over `n` tokens.
inline double causal_pairs(double n) { return n * (n + 1.0) / 2.0; }

/// Whole-model step FLOPs for global sequence length `n` under a causal
/// mask. `ckpt` adds the recomputation term; `lm_head_recompute` models the
/// [25, 39]-style fused-CE baselines that recompute logits in backward.
FlopsBreakdown step_flops(const model::ModelConfig& cfg, double n,
                          const core::CkptConfig& ckpt,
                          bool lm_head_recompute = false);

/// Attention-module-only FLOPs per layer (used by the Figure 14 bench).
double attention_layer_flops(const model::ModelConfig& cfg, double n,
                             bool forward_and_backward = true);

/// Fraction of a training step spent in attention (Figure 2).
double attention_time_share(const model::ModelConfig& cfg, double n);

}  // namespace burst::perfmodel
