// Distributed context-parallel attention: BurstAttention and the
// RingAttention baseline (Section 3.1, Algorithms 1 and 2).
//
// Both share the forward pass (ring K/V sweep with online-softmax
// aggregation, communication volume 2N·d_kv per GPU, where d_kv is the K/V
// width: d for MHA, less under GQA). They differ in backward:
//
//  * RingAttention (Algorithm 1) circulates (K, V, ∇K, ∇V): volume 4N·d_kv,
//    and recomputes D = rowsum(∇O ∘ O) every ring step.
//  * BurstAttention (Algorithm 2) keeps K/V/∇K/∇V local and circulates
//    (Q, ∇Q, ∇O, D, Lse): volume 3Nd + 2NH for H query heads (~25% less
//    than Ring for MHA), computing D once.
//
// Every local head travels in one bundle per hop, as Algorithm 2 passes a
// device's whole shard, so a layer takes one sweep, not one per head.
//
// The route decides the communication pattern: flat ring (vanilla /
// Megatron-CP style), or the topology-aware double ring (BurstAttention,
// DoubleRingAttention). Workload balance (contiguous / zigzag / striped) is
// orthogonal and handled through IndexMaps.
//
// Note on Algorithm 2 line 11: the paper writes ∇S_{j,i} = P ∘ (∇P − D_i);
// the softmax-Jacobian row term must belong to the *query* row, i.e. D_j.
// We implement D_j (and validate against reference gradients).
#pragma once

#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "core/partition.hpp"
#include "core/sweep.hpp"
#include "kernels/flash_attention.hpp"
#include "kernels/mask.hpp"
#include "kernels/rope.hpp"
#include "tensor/tensor.hpp"

namespace burst::core {

enum class BackwardComm {
  kRing,   // Algorithm 1: circulate K, V, ∇K, ∇V
  kBurst,  // Algorithm 2: circulate Q, ∇Q, ∇O, D, Lse
};

struct DistAttnConfig {
  kernels::MaskSpec mask = kernels::MaskSpec::full();
  float scale = 1.0f;
  Balance balance = Balance::kContiguous;
  BackwardComm backward = BackwardComm::kBurst;
  bool overlap = true;
  std::int64_t seq_len = 0;  // global N
  /// First message tag of the sweeps (SweepOptions::tag_base).
  int tag_base = 0;
};

/// Every local head of this device's shard, rows ordered by its IndexMap:
/// one Q per query head, one K and one V per K/V head. Query head h reads
/// K/V head h / (q.size() / k.size()), so MHA and GQA share one layout.
struct LocalHeads {
  std::vector<tensor::Tensor> q, k, v;
};

/// Forward output per query head: O and its LSE.
struct HeadsResult {
  std::vector<tensor::Tensor> o, lse;
};

/// Gradients: dQ per query head, dK and dV per K/V head.
struct HeadsGrads {
  std::vector<tensor::Tensor> dq, dk, dv;
};

/// Ring forward (both methods) of every head at once: each hop carries each
/// K/V head once; a visit runs the heads' kernels under the deterministic
/// parallel_for, one chunk per head, then charges their post-skip FLOPs to
/// the virtual compute stream (and `stats`) in head order. A one-member
/// route is the same call with no hop. `q_rows`, if given, holds the global
/// positions of `local.q`'s rows: the subset of this device's queries that
/// sequence-level selective checkpointing recomputes. It may be empty; the
/// device still feeds its K/V to the ring.
HeadsResult dist_attention_forward(comm::Communicator& comm,
                                   const SweepRoute& route,
                                   const DistAttnConfig& cfg,
                                   const LocalHeads& local,
                                   kernels::KernelStats* stats = nullptr,
                                   const kernels::IndexMap* q_rows = nullptr);

/// Backward per `cfg.backward`, every head at once. Ring's hops carry each
/// K/V head's K, V, dK and dV once; Burst's carry Q, dO, D and Lse of every
/// query head with a dQ accumulator per query head, and keep a dK/dV per
/// query head on the device, summed into their K/V head at the end in
/// ascending head order. When `rope` is set, Q and K were rotated by its
/// angles (the table of this device's rows), and dQ and dK are rotated back
/// (each query head's dK before the sum) so they are w.r.t. the unrotated
/// inputs.
HeadsGrads dist_attention_backward(comm::Communicator& comm,
                                   const SweepRoute& route,
                                   const DistAttnConfig& cfg,
                                   const LocalHeads& local,
                                   const HeadsResult& fwd,
                                   std::vector<tensor::Tensor> d_out,
                                   kernels::KernelStats* stats = nullptr,
                                   const kernels::RopeTable* rope = nullptr);

/// This device's Q/K/V shard of one head, and its gradients.
struct LocalQKV {
  tensor::Tensor q, k, v;
};
struct LocalGrads {
  tensor::Tensor dq, dk, dv;
};

/// One head: the multi-head forward above with one query and one K/V head.
kernels::AttnResult dist_attention_forward(comm::Communicator& comm,
                                           const SweepRoute& route,
                                           const DistAttnConfig& cfg,
                                           const LocalQKV& local,
                                           kernels::KernelStats* stats = nullptr);

/// One head: the multi-head backward above.
LocalGrads dist_attention_backward(comm::Communicator& comm,
                                   const SweepRoute& route,
                                   const DistAttnConfig& cfg,
                                   const LocalQKV& local,
                                   const kernels::AttnResult& fwd,
                                   const tensor::Tensor& d_out,
                                   kernels::KernelStats* stats = nullptr);

/// IndexMap of a route member's shard. Balance strategies partition over the
/// route's *positions* (0..G-1), not global ranks, so sub-group rings (USP)
/// work unchanged.
kernels::IndexMap route_index_map(const SweepRoute& route,
                                  const DistAttnConfig& cfg, int rank);

}  // namespace burst::core
