// Distributed chunked prefill: sequence-parallel prompt processing for
// prompts too long for one simulated device.
//
// Prefill is the training step's forward pass (model::dist_forward) plus a
// gather. The prompt is sharded contiguously across the cluster, and every
// device runs the layer stack on its rows with the BurstAttention ring
// forward supplying cross-shard attention: topology-aware double ring on
// multi-node clusters, every head in one sweep, GQA included. The virtual
// clock is charged as for the step's forward: the block GEMMs, the attention
// kernels and the transient activations. Each device ends up holding exactly
// its shard's K/V rows (post-RoPE, the cache layout decode expects); those
// per-device cache shards are then gathered to rank 0 and assembled into one
// model::SequenceKvCache that is bit-compatible with serial chunked prefill,
// ready for the single-device decode engine to take over.
// burst-lint: allow-file(no-direct-cluster) distributed prefill is entered with a caller-owned cluster; ranks are wrapped in SimTransport internally
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/mask.hpp"
#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "model/transformer.hpp"
#include "sim/cluster.hpp"
#include "tensor/tensor.hpp"

namespace burst::serve {

struct DistPrefillResult {
  /// The full prompt's cache, assembled on rank 0. len() == prompt size.
  model::SequenceKvCache cache;
  /// Final-layer hidden state of the last prompt row ([1, d_model]).
  tensor::Tensor last_hidden;
  /// Greedy first generated token (argmax of the last row's logits).
  std::int64_t first_token = -1;
};

/// Runs the sharded prefill on `cluster` (blocks until done). The prompt
/// length must be divisible by the cluster's world size.
DistPrefillResult distributed_prefill(
    sim::Cluster& cluster, const model::ModelConfig& cfg,
    const model::ModelWeights& w, const std::vector<std::int64_t>& prompt,
    std::int64_t block_tokens,
    const kernels::MaskSpec& mask = kernels::MaskSpec::causal());

}  // namespace burst::serve
