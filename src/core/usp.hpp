// USP: hybrid head+context parallelism (LoongTrain-USP baseline, [10, 13]).
//
// Devices form a Gh x Gr grid with head-first placement: rank = hg*Gh + hp,
// where the Gh consecutive ranks of a head group share a node (so the
// all-to-all rides NVLink), and ring groups {hp, hp+Gh, ...} span nodes.
//
// Forward: (1) all-to-all inside each head group converts [N/G tokens x H
// heads] to [N/Gr tokens x H/Gh heads]; (2) ring attention (RingAttention or
// BurstAttention backward-comm, selectable) runs across the Gr ring-group
// devices, every owned head in one sweep; (3) the reverse all-to-all restores
// sequence sharding. Backward mirrors the pipeline.
//
// DeepSpeed-Ulysses (Section 4.1) is the grid's Gh = G corner: one head
// group spanning the world, rings of one member, contiguous shards. Its
// per-device volume is O(N·d_model/G) per all-to-all — cheap — but the
// all-to-all cannot overlap with computation (the paper's explanation for
// Ulysses trailing LoongTrain/BurstEngine), and head parallelism requires
// heads % Gh == 0 (why Ulysses is inapplicable to the 40-head 14B model on
// 32/64 GPUs, Figure 14).
//
// Workload balance applies at the ring level: ring shard `m` is
// device_index_map(balance, N, Gr, m); within a head group, member hp holds
// rows [hp*N/G, (hp+1)*N/G) of that shard (use usp_local_index_map to
// build/validate inputs).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/dist_attention.hpp"
#include "kernels/flash_attention.hpp"
#include "kernels/index_map.hpp"
#include "kernels/mask.hpp"
#include "tensor/tensor.hpp"

namespace burst::core {

/// Thrown when the head count is not divisible by the head-group size — the
/// structural limitation of head parallelism.
class UlyssesConfigError : public std::invalid_argument {
 public:
  explicit UlyssesConfigError(int heads, int g)
      : std::invalid_argument("Ulysses head parallelism needs heads % G == 0 "
                              "(heads=" +
                              std::to_string(heads) +
                              ", G=" + std::to_string(g) + ")") {}
};

struct UspConfig {
  kernels::MaskSpec mask = kernels::MaskSpec::causal();
  float scale = 1.0f;
  std::int64_t seq_len = 0;
  int num_heads = 1;      // total H; must satisfy H % Gh == 0
  int head_parallel = 1;  // Gh; must divide G
  Balance balance = Balance::kContiguous;
  BackwardComm backward = BackwardComm::kRing;  // LoongTrain uses Alg. 1
  bool overlap = true;
};

/// Global token positions of rank's local rows (the composite ring+head map).
kernels::IndexMap usp_local_index_map(const UspConfig& cfg, int world_size,
                                      int rank);

struct UspSaved {
  LocalHeads heads;  // ring shard of every owned head
  HeadsResult out;
};

/// Inputs: one [N/G, dh] tensor per global head, rows ordered by
/// usp_local_index_map. Output: same layout for O.
std::vector<tensor::Tensor> usp_forward(comm::Communicator& comm,
                                        const UspConfig& cfg,
                                        const std::vector<tensor::Tensor>& q,
                                        const std::vector<tensor::Tensor>& k,
                                        const std::vector<tensor::Tensor>& v,
                                        UspSaved* saved,
                                        kernels::KernelStats* stats = nullptr);

/// `rope`: Q and K were rotated at their global positions; dQ and dK come
/// back w.r.t. the unrotated inputs (see dist_attention_backward).
HeadsGrads usp_backward(comm::Communicator& comm, const UspConfig& cfg,
                        const UspSaved& saved,
                        const std::vector<tensor::Tensor>& d_out,
                        kernels::KernelStats* stats = nullptr,
                        bool rope = false);

}  // namespace burst::core
