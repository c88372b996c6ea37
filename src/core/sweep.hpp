// Ring sweeps: the communication schedules at the heart of RingAttention,
// DoubleRingAttention and BurstAttention (Sections 3.1, Figures 3-5).
//
// A sweep moves shard "bundles" around a cyclic route so that every device
// visits every shard exactly once. Two flavors:
//
//  * Activation sweep (forward): bundles are immutable (K/V partitions).
//    A device forwards its current bundle *before* computing on it, so
//    communication of step s+1 overlaps computation of step s — the
//    "activation overlapping" of Figure 5. G visits, G-1 hops per bundle.
//
//  * Gradient sweep (backward): each shard has an immutable part (for
//    BurstAttention: Q, ∇O, D, Lse) and an accumulator (∇Q) every device
//    must add a contribution to. The immutable part is pipelined ahead
//    exactly like activations; the accumulator follows the same route one
//    visit behind, carrying the contribution computed at the previous step —
//    the "gradient overlapping" warm-up trick of Figure 5. This removes the
//    compute->communicate dependency from the critical path: per-step time
//    approaches max(compute, comm) instead of compute + comm. Immutable
//    parts travel G-1 hops, accumulators travel G hops (they must return to
//    their origin).
//
// Routes:
//  * flat ring over an arbitrary rank group (vanilla RingAttention; also the
//    ring stage of USP over a subgroup), and
//  * the topology-aware double ring (Figure 4): hops stay on NVLink inside a
//    node for L-1 steps, then take one InfiniBand hop to the next node; the
//    per-step hop schedule is identical on every device, so each step is a
//    permutation and every bundle traces a Hamiltonian cycle.
//
// Bundles travel as shared read-only handles (tensor::SharedTensors): a hop
// forwards the handle, not a copy, so every visit of a shard reads the
// storage its origin rank built; accumulators are moved into their hop.
//
// When `overlap` is false the device serializes streams after every step,
// modeling implementations that do not overlap (LoongTrain-DoubleRing's
// gradient phase, per the paper's analysis).
#pragma once

#include <functional>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/ring.hpp"
#include "sim/topology.hpp"
#include "tensor/tensor.hpp"

namespace burst::core {

/// A cyclic visiting route: who a device forwards to after each visit.
/// The hop after the final visit (step G-1) is only taken by gradient
/// accumulators — it closes the cycle and returns them home.
class SweepRoute {
 public:
  /// Everyone in `ring`, flat: hop s goes to the ring successor.
  static SweepRoute flat(comm::RingOrder ring);

  /// Topology-aware double ring over the whole cluster: L-1 intra-node hops
  /// then one inter-node hop, repeated (L = gpus_per_node). The inter hop is
  /// diagonal — next node, local slot + 1 — which exactly compensates the
  /// intra-ring drift so every bundle traces a closed Hamiltonian walk, while
  /// still putting every node's L NIC rails to work simultaneously.
  /// Degenerate single-node / single-GPU-per-node topologies fall back to the
  /// flat ring.
  static SweepRoute double_ring(const sim::Topology& topo);

  int size() const { return size_; }
  /// Number of visits each device performs (== size()).
  int steps() const { return size_; }

  int hop_target(int rank, int step) const;
  int hop_source(int rank, int step) const;

  /// All ranks participating, in route-definition order.
  const std::vector<int>& ranks() const { return ranks_; }

 private:
  SweepRoute() = default;

  int size_ = 0;
  std::vector<int> ranks_;
  // Flat: single explicit ring. Double: hops computed from the grid shape.
  bool is_double_ = false;
  int num_nodes_ = 1;
  int gpus_per_node_ = 1;
  std::vector<comm::RingOrder> flat_;
  bool hop_is_inter(int step) const;
};

struct SweepOptions {
  bool overlap = true;
  /// Base for message tags; callers doing several sweeps in one exchange
  /// phase must give each a distinct base.
  int tag_base = 0;
};

/// Forward/activation sweep. `visit(tensors, origin)` is called once per
/// shard (starting with the device's own); tensors are read-only.
void ring_sweep_activation(
    comm::Communicator& comm, const SweepRoute& route, const SweepOptions& opt,
    std::vector<tensor::Tensor> own,
    const std::function<void(const std::vector<tensor::Tensor>&, int)>& visit);

/// Backward/gradient sweep. For each visited shard, `visit(imm, origin)`
/// returns the contribution tensors (same arity/shapes as `own_accum`) to be
/// added into that shard's accumulator. Returns this device's own
/// accumulator after every device has contributed.
std::vector<tensor::Tensor> ring_sweep_gradient(
    comm::Communicator& comm, const SweepRoute& route, const SweepOptions& opt,
    std::vector<tensor::Tensor> own_imm, std::vector<tensor::Tensor> own_accum,
    const std::function<std::vector<tensor::Tensor>(
        const std::vector<tensor::Tensor>&, int)>& visit);

}  // namespace burst::core
