// Distributed (context/head-parallel) training step over the simulated
// cluster — the functional end-to-end integration of BurstEngine:
//
//   * sequence sharding with any workload balance (zigzag/striped/...);
//   * distributed attention per layer via BurstAttention, RingAttention,
//     DeepSpeed-Ulysses, or LoongTrain-USP (Ulysses runs as USP with one
//     head group spanning the world);
//   * gradient checkpointing (none / full / selective++ / sequence-level
//     selective, Section 3.2) with *real* recomputation — including the
//     distributed ring re-execution sequence-level checkpointing needs for
//     its non-stored front rows;
//   * fused or naive LM head + loss (Section 3.3);
//   * data-parallel weight-gradient all-reduce.
//
// The step's forward also runs alone (dist_forward): the one-device serial
// loss and logits, and serve::distributed_prefill, which keeps its K/V
// shards for the decode cache.
//
// Weights are replicated (the paper's FSDP is a memory-sharding optimization
// modeled analytically in perfmodel; replication keeps the functional math
// identical). Stored activations and LM-head scratch are charged to the
// device MemoryTracker at 2 bytes/element ("as-if bf16") so strategies are
// comparable with the paper's units.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "core/checkpoint.hpp"
#include "core/dist_attention.hpp"
#include "core/partition.hpp"
#include "kernels/mask.hpp"
#include "model/config.hpp"
#include "model/transformer.hpp"

namespace burst::model {

enum class AttnImpl {
  kBurst,    // BurstAttention (Algorithm 2 backward)
  kRing,     // RingAttention baseline (Algorithm 1 backward)
  kUlysses,  // head parallelism: USP with one head group
  kUsp,      // hybrid head+context
};

struct DistTrainConfig {
  ModelConfig model;
  kernels::MaskSpec mask = kernels::MaskSpec::causal();
  AttnImpl impl = AttnImpl::kBurst;
  core::Balance balance = core::Balance::kZigzag;
  /// Use the topology-aware double ring when the cluster spans nodes.
  bool topo_aware = true;
  bool overlap = true;
  core::CkptConfig ckpt{core::CkptStrategy::kSelectivePP, 0.5};
  bool fused_lm_head = true;
  int usp_head_parallel = 1;
  /// All-reduce weight gradients at the end (replicated data parallel).
  /// FSDP training sets this false and reduce-scatters instead
  /// (model/fsdp.hpp).
  bool sync_grads = true;
};

/// Loss and gradients are identical on all ranks (the gradients all-reduced
/// unless `sync_grads` is off).
using DistStepResult = TrainStepResult;

/// One SPMD training step; call from within a Cluster::run functor. `tokens`
/// holds the full global sequence (N+1 float-encoded ids) — each device
/// shards it locally by its index map. Throws std::invalid_argument, before
/// allocating anything, when `tokens` holds fewer than 2 ids or an id
/// outside [0, vocab). On a one-member route (one device) nothing is sent:
/// the heads run their local attention kernels in parallel instead.
DistStepResult dist_train_step(comm::Communicator& comm,
                               const DistTrainConfig& cfg,
                               const ModelWeights& weights,
                               const tensor::Tensor& tokens);

/// The step's forward alone, SPMD like it: this rank embeds its rows of the
/// `n` global ids `ids`, runs every layer's forward and drops each layer's
/// state, and its memory charge, once the layer's output exists. Returns
/// this rank's final hidden rows in dist_index_map order. With `kv`, which
/// needs ckpt kNone and a context-parallel impl, each layer appends its
/// post-RoPE K/V heads of this rank's rows (`q` left empty). Charges the
/// virtual clock as the step's forward does: every GEMM, the attention
/// kernels and their communication.
tensor::Tensor dist_forward(comm::Communicator& comm,
                            const DistTrainConfig& cfg,
                            const ModelWeights& weights,
                            const std::int64_t* ids, std::int64_t n,
                            std::vector<core::LocalHeads>* kv = nullptr);

/// Ranks per head group of the USP grid `cfg` runs on over `world_size`
/// ranks: the whole world for Ulysses (USP with one head group),
/// `usp_head_parallel` for USP, and 1 for the context-parallel impls. Must
/// divide both `world_size` and the head count.
int head_group_size(const DistTrainConfig& cfg, int world_size);

/// The sequence shard (global positions) owned by `rank` under `cfg` for a
/// global sequence of `seq_len` tokens.
kernels::IndexMap dist_index_map(const DistTrainConfig& cfg,
                                 std::int64_t seq_len, int world_size,
                                 int rank);

}  // namespace burst::model
