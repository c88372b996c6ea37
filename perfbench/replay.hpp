// Per-layer replays: the traced run calls a layer's public kernels at the
// exact shapes one workload operation uses, times each call and records it
// as a span for the trace. Inputs are seeded random tensors of the right
// shapes; only the time and the work counts are used.
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/flash_attention.hpp"
#include "kernels/index_map.hpp"
#include "model/config.hpp"
#include "spans.hpp"

namespace perfbench {

/// Work done by a replay: wall ms (sum of its spans) and FLOPs.
struct Replayed {
  double ms = 0.0;
  double flops = 0.0;
  double gflops() const { return ms > 0.0 ? flops / (ms * 1e6) : 0.0; }
};

/// Projection + FFN GEMMs of one training step over `rows` rows per device:
/// the forward GEMMs, the backward's two GEMMs per weight, and (with
/// `recompute`) the forward GEMMs the checkpointed backward recomputes.
/// Spans: "tensor.gemm".
Replayed replay_train_gemms(const burst::model::ModelConfig& cfg,
                            std::int64_t rows, bool recompute,
                            std::uint64_t seed, SpanRecorder* rec);

/// One decode token's projection + FFN GEMMs (one row per layer). Spans:
/// "tensor.gemm".
Replayed replay_decode_gemms(const burst::model::ModelConfig& cfg,
                             std::uint64_t seed, SpanRecorder* rec);

/// One (query shard, key shard) pair of an attention replay.
struct AttnPair {
  burst::kernels::IndexMap qmap;
  burst::kernels::IndexMap kmap;
};

/// Attention forward over `pairs` for every head of every layer
/// (flash_forward_partial, span "kernels.flash_forward_partial"). Tile
/// counts accumulate into `stats` when given.
Replayed replay_attention_forward(const burst::model::ModelConfig& cfg,
                                  const std::vector<AttnPair>& pairs,
                                  std::uint64_t seed, SpanRecorder* rec,
                                  burst::kernels::KernelStats* stats);

/// Attention backward over `pairs` for every head of every layer
/// (attention_dvec + flash_backward_partial, span
/// "kernels.flash_backward_partial").
Replayed replay_attention_backward(const burst::model::ModelConfig& cfg,
                                   const std::vector<AttnPair>& pairs,
                                   std::uint64_t seed, SpanRecorder* rec,
                                   burst::kernels::KernelStats* stats);

/// The fused LM head + loss over `rows` rows (span
/// "kernels.fused_lm_head_loss"), with the block sizes the model uses.
Replayed replay_lm_head(const burst::model::ModelConfig& cfg,
                        std::int64_t rows, std::uint64_t seed,
                        SpanRecorder* rec);

}  // namespace perfbench
