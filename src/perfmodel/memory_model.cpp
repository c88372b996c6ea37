#include "perfmodel/memory_model.hpp"

namespace burst::perfmodel {

using core::CkptConfig;
using core::CkptStrategy;

double stored_activation_per_token(const CkptConfig& ckpt, double d_model,
                                   double bytes_per_el) {
  switch (ckpt.strategy) {
    case CkptStrategy::kNone:
      // Everything kept: qkv/o/attn-out (~6d) + block IO (2d) + FFN (~2d_ff
      // approximated as 2.7d * 2).
      return (8.0 + 2.0 * 2.7) * d_model * bytes_per_el;
    case CkptStrategy::kFull:
      return 2.0 * d_model * bytes_per_el;  // block input + residual
    case CkptStrategy::kSelectivePP:
      return (2.0 + 1.0) * d_model * bytes_per_el;  // + attention output
    case CkptStrategy::kSeqSelective:
      return (2.0 + ckpt.store_fraction) * d_model * bytes_per_el;
  }
  return 0.0;
}

double lm_head_logits_bytes(double tokens, double vocab, double bytes_per_el) {
  return tokens * vocab * bytes_per_el;
}

MemoryBreakdown peak_memory(const MemoryInputs& in, const HardwareModel& hw) {
  // Sequence-block rows of the fused LM head tile (Algorithm 3's Bs).
  constexpr double kFusedBlockRows = 1024;
  const auto& m = in.model;
  const double p = static_cast<double>(m.param_count());
  const double b = m.bytes_per_el();
  const double shard = in.fsdp ? static_cast<double>(in.world) : 1.0;

  MemoryBreakdown out;
  out.param_shard = b * p / shard;
  out.grad_shard = b * p / shard;
  out.optimizer = in.optimizer_offload ? 0.0 : 12.0 * p / shard;
  out.gathered_layer =
      in.fsdp ? b * static_cast<double>(m.params_per_layer()) : 0.0;

  const double d_model = static_cast<double>(m.d_model);
  const double vocab = static_cast<double>(m.vocab);
  out.activations = stored_activation_per_token(in.ckpt, d_model, b) *
                    in.tokens_per_gpu * static_cast<double>(m.layers);
  out.working_set =
      (8.0 * d_model + 2.0 * static_cast<double>(m.d_ff)) * b *
      in.tokens_per_gpu;

  out.lm_head =
      in.fused_lm_head
          ? lm_head_logits_bytes(kFusedBlockRows, vocab, b)
          : lm_head_logits_bytes(in.tokens_per_gpu, vocab, b);

  // Triple-buffered (compute / intra / inter) K,V bundles.
  out.comm_buffers = 6.0 * in.tokens_per_gpu * d_model * b;
  out.reserved = hw.reserved_bytes;
  return out;
}

}  // namespace burst::perfmodel
