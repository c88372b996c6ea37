// Peak per-GPU memory model (Figures 7, 8, 13 and the memory columns of
// Tables 2, 4, 5).
//
// Components, all in bytes, training dtype bf16 (2 B) with fp32 Adam state:
//   * parameter / gradient shards  — 2P/G each under FSDP (ZeRO-3), full 2P
//     when replicated (Megatron-CP has no FSDP in the paper's setup);
//   * optimizer state              — fp32 master + Adam m, v = 12P/G, or 0
//     when offloaded to host (ZeRO-Offload);
//   * one gathered layer           — FSDP materializes one layer's full
//     parameters during compute;
//   * stored activations per layer — depends on the checkpoint strategy
//     (see core/checkpoint.hpp); "2d" per token covers the checkpointed
//     block input + residual, "+d" the attention output of SelectivePP,
//     "+f*d" the stored tail of sequence-level selective checkpointing;
//   * backward working set         — one layer's full intermediates
//     (~(8d + 2*d_ff) per token) live during recompute/backward;
//   * LM head                      — the N_loc x v bf16 logits strip when
//     unfused (the Figure 8 blow-up), or one Bs x v tile when fused;
//   * ring communication buffers   — triple-buffered K/V bundles;
//   * reserved                     — CUDA context, NCCL, fragmentation.
#pragma once

#include "core/checkpoint.hpp"
#include "model/config.hpp"
#include "perfmodel/hardware.hpp"

namespace burst::perfmodel {

struct MemoryInputs {
  model::ModelConfig model;
  double tokens_per_gpu = 0;  // N / context-parallel degree
  int world = 1;              // sharding degree for FSDP states
  bool fsdp = true;
  bool optimizer_offload = false;
  core::CkptConfig ckpt{core::CkptStrategy::kFull, 0.5};
  bool fused_lm_head = false;
};

struct MemoryBreakdown {
  double param_shard = 0;
  double grad_shard = 0;
  double optimizer = 0;
  double gathered_layer = 0;
  double activations = 0;
  double working_set = 0;
  double lm_head = 0;
  double comm_buffers = 0;
  double reserved = 0;

  double total() const {
    return param_shard + grad_shard + optimizer + gathered_layer +
           activations + working_set + lm_head + comm_buffers + reserved;
  }
};

MemoryBreakdown peak_memory(const MemoryInputs& in, const HardwareModel& hw);

/// Stored-activation bytes per token per layer for a checkpoint strategy
/// (hidden size d elements, bf16). Used directly by the Figure 7 bench.
double stored_activation_per_token(const core::CkptConfig& ckpt,
                                   double d_model, double bytes_per_el);

/// LM-head logits bytes (Figure 8): tokens x vocab at bf16.
double lm_head_logits_bytes(double tokens, double vocab, double bytes_per_el);

}  // namespace burst::perfmodel
