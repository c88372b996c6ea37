// Single-device blocked attention with online softmax — the CPU stand-in for
// FlashAttention (substitution documented in DESIGN.md).
//
// The kernel operates on one attention head: Q in R^{Nq x d}, K/V in
// R^{Nk x d}. It is "partial" in the RingAttention sense: the K/V block may
// be any slice of the global sequence, and results merge into a running
// (O, LSE) accumulator with the online-softmax rule — exactly the
// aggregation loop of Eq. (5) in the paper. The backward pass consumes the
// *global* LSE and D = rowsum(dO ∘ O) computed after the full forward, as in
// Algorithms 1 and 2; masked positions contribute nothing because their
// probability is exactly zero.
//
// Positions are global: `qmap`/`kmap` translate local rows to global token
// indices so causal/sliding-window/block-sparse masks work for any
// workload-balance partitioning (contiguous, zigzag, striped).
#pragma once

#include <cstdint>

#include "kernels/index_map.hpp"
#include "kernels/mask.hpp"
#include "tensor/tensor.hpp"

namespace burst::obs {
class Registry;
}  // namespace burst::obs

namespace burst::kernels {

/// Forward output of an attention call: O and the per-row LogSumExp.
struct AttnResult {
  tensor::Tensor o;
  tensor::Tensor lse;
};

/// Optional instrumentation: the cost actually incurred after tile skipping.
/// Used by workload-balance tests and the simulated compute charges.
struct KernelStats {
  std::uint64_t flops = 0;
  std::uint64_t tiles_computed = 0;
  std::uint64_t tiles_skipped = 0;
};

/// Attention FLOPs for `pairs` unmasked (q, k) pairs at head dim `d`:
/// QK^T and PV each cost 2*d FLOPs per pair.
inline std::uint64_t attention_pair_flops(std::uint64_t pairs, std::int64_t d) {
  return pairs * static_cast<std::uint64_t>(4 * d);
}

/// Computes attention of `q` against one K/V partition and merges the result
/// into (`o_acc`, `lse_acc`) with online softmax. `o_acc` must be zeros and
/// `lse_acc` filled with -inf before the first partition.
void flash_forward_partial(const tensor::Tensor& q, const IndexMap& qmap,
                           const tensor::Tensor& k, const tensor::Tensor& v,
                           const IndexMap& kmap, const MaskSpec& mask,
                           float scale, tensor::Tensor& o_acc,
                           tensor::Tensor& lse_acc,
                           KernelStats* stats = nullptr);

/// View-based variant for callers whose Q/K/V live inside larger
/// allocations — chunked prefill attending to a KV-cache prefix reads the
/// cache rows in place instead of copying them out. Identical math and
/// accumulator contract as the Tensor overload.
void flash_forward_partial(tensor::ConstMatView q, const IndexMap& qmap,
                           tensor::ConstMatView k, tensor::ConstMatView v,
                           const IndexMap& kmap, const MaskSpec& mask,
                           float scale, tensor::MatView o_acc,
                           tensor::Tensor& lse_acc,
                           KernelStats* stats = nullptr);

/// Append-one-query decode path: attention of a single query row at global
/// position `q_pos` against keys/values covering global positions
/// [0, k.rows) — the per-token hot loop of KV-cache decoding. Two passes
/// with no tile machinery: scores into Workspace scratch (masked keys at
/// -inf), then the shared softmax primitive (tensor/softmax.hpp) and a PV
/// accumulation vectorized over d. Writes the output into `o_row` ([1, d])
/// and returns the row's LogSumExp (-inf if every key is masked, in which
/// case `o_row` is zeroed). Counts one computed tile of `pairs * 4d` FLOPs
/// in `stats`, where `pairs` is the number of allowed keys.
float flash_decode_step(tensor::ConstMatView q, tensor::ConstMatView k,
                        tensor::ConstMatView v, std::int64_t q_pos,
                        const MaskSpec& mask, float scale,
                        tensor::MatView o_row, KernelStats* stats = nullptr);

/// Single-partition convenience wrapper: fresh accumulators, one call.
AttnResult flash_forward(const tensor::Tensor& q, const IndexMap& qmap,
                         const tensor::Tensor& k, const tensor::Tensor& v,
                         const IndexMap& kmap, const MaskSpec& mask,
                         float scale, KernelStats* stats = nullptr);

/// D = rowsum(dO ∘ O) (Algorithm 1 line 10 / Algorithm 2 line 2).
tensor::Tensor attention_dvec(const tensor::Tensor& d_out,
                              const tensor::Tensor& o);

/// Accumulates gradients for one (Q partition, K/V partition) pair:
///   dV += P^T dO,  dK += dS^T Q * scale,  dQ += dS K * scale,
/// with P rebuilt from the stored global `lse` and dS = P ∘ (dP − D).
/// `d_out`, `lse`, `dvec` are aligned with `q` rows. Accumulators must be
/// pre-sized (dq: like q, dk/dv: like k/v).
void flash_backward_partial(const tensor::Tensor& q, const IndexMap& qmap,
                            const tensor::Tensor& k, const tensor::Tensor& v,
                            const IndexMap& kmap, const MaskSpec& mask,
                            float scale, const tensor::Tensor& d_out,
                            const tensor::Tensor& lse,
                            const tensor::Tensor& dvec, tensor::Tensor& dq_acc,
                            tensor::Tensor& dk_acc, tensor::Tensor& dv_acc,
                            KernelStats* stats = nullptr);

/// Observation-only counters mirroring KernelStats into the obs registry:
/// `kernels.attn.tiles_computed`, `kernels.attn.tiles_skipped` counters and
/// the `kernels.workspace.high_water_bytes` gauge. Pass nullptr to detach.
/// Attach/detach from a single thread while no kernel runs concurrently;
/// attached metrics never change results (PR 3 discipline).
void attach_attention_metrics(obs::Registry* registry);

}  // namespace burst::kernels
