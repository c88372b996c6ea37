// Language-modeling head + cross-entropy loss kernels (Section 3.3).
//
// Three implementations with identical math and different memory/compute
// trade-offs:
//
//  * naive_lm_head_loss           — materializes the full N x v logits
//                                   matrix (the baseline whose memory blows
//                                   up in Figure 8);
//  * tiled_recompute_lm_head_loss — the prior fused-tile approach of
//                                   [25, 39]: never stores logits, but
//                                   recomputes every tile during backward
//                                   (extra 2*N*v*d FLOPs);
//  * fused_lm_head_loss           — the paper's Algorithm 3: runs backward
//                                   immediately after forward per sequence
//                                   strip, caching one Bs x v logits strip,
//                                   so nothing is recomputed and memory
//                                   stays at Bs x v.
//
// The two tiled variants run one implementation, which reads W (the
// vocabulary weights) in place and splits each strip across the thread
// pool; results are bitwise identical for any pool size.
//
// Loss is mean cross-entropy over tokens; gradients are with respect to that
// mean. Scratch bytes report the logits storage high-water mark in fp32 (the
// functional dtype); the perfmodel rescales to bf16 for paper-scale numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace burst::kernels {

/// The strip shape the model runs Algorithm 3 at: 32-token strips over
/// 64-word vocabulary tiles. Each strip's products split across the pool
/// (lm_head.cpp), so the tiles stay small without leaving cores idle.
inline constexpr std::int64_t kLmHeadStripRows = 32;
inline constexpr std::int64_t kLmHeadTileCols = 64;

struct LmHeadResult {
  double loss = 0.0;                 // mean CE over the N tokens
  tensor::Tensor dh;                 // [N, d] gradient of hidden states
  tensor::Tensor dw;                 // [v, d] gradient of vocabulary weights
  std::uint64_t peak_scratch_bytes = 0;  // logits storage high-water mark
  std::uint64_t flops = 0;           // matmul FLOPs actually executed
};

/// Baseline: logits = H W^T in full, softmax + CE, full backward.
LmHeadResult naive_lm_head_loss(const tensor::Tensor& h,
                                const tensor::Tensor& w,
                                const std::vector<std::int64_t>& targets);

/// Tile-level fusion with backward recomputation ([25, 39]-style).
LmHeadResult tiled_recompute_lm_head_loss(
    const tensor::Tensor& h, const tensor::Tensor& w,
    const std::vector<std::int64_t>& targets, std::int64_t block_s,
    std::int64_t block_v);

/// The paper's Algorithm 3: per-strip fused forward+backward, no recompute.
LmHeadResult fused_lm_head_loss(const tensor::Tensor& h,
                                const tensor::Tensor& w,
                                const std::vector<std::int64_t>& targets,
                                std::int64_t block_s, std::int64_t block_v);

}  // namespace burst::kernels
