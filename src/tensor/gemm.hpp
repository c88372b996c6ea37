// Packed, register-blocked general matrix multiply on MatViews. The single
// compute primitive behind attention, FFN, and LM-head math in the
// functional path.
//
// Implementation (DESIGN.md §11): operands are packed per cache block into
// contiguous, transpose-resolved panels (tensor/pack.hpp) borrowed from the
// thread-local Workspace, then a branch-free register-tile microkernel (up
// to 16 rows x 16 columns of accumulators) runs over the packed panels. Row blocks — and, when m is too
// small to fill the pool, groups of column panels — are dispatched over
// parallel::ThreadPool with deterministic partitioning, so results are
// bitwise identical for any pool size (including BURST_THREADS overrides).
// Quantized weights (DESIGN.md §16): B operands can be stored in any
// tensor/dtype.hpp DType. PackedB quantizes + panelizes op(B) once (weights
// are static), then gemm_packed streams the quantized panels through the
// microkernel, which dequantizes them block by block — the fp32 path is
// bit-identical to gemm() on the same operands.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/dtype.hpp"
#include "tensor/tensor.hpp"

namespace burst::obs {
class Registry;
}  // namespace burst::obs

namespace burst::tensor {

enum class Trans { No, Yes };

/// C = alpha * op(A) @ op(B) + beta * C, where op is identity or transpose.
/// Shapes are validated with assertions: op(A) is MxK, op(B) is KxN, C MxN.
/// IEEE semantics: every product contributes (0 * inf and 0 * NaN propagate
/// NaN); there is no zero-skip fast path.
void gemm(ConstMatView a, Trans ta, ConstMatView b, Trans tb, MatView c,
          float alpha = 1.0f, float beta = 0.0f);

/// Returns A @ B.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Returns A @ B^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Returns A^T @ B.
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// A weight operand packed (and, for kQ8_0/kQ4_0, quantized) once into the
/// GEMM driver's cache-block panel layout (tensor/pack.hpp). Construction
/// pays the layout + quantization cost a single time, so steady-state GEMMs
/// stream the 4-8x smaller panels straight into the dequantizing
/// microkernels with zero per-call packing. The panel layout matches
/// gemm()'s blocking exactly: gemm_packed over a kF32 pack is
/// bitwise-identical to gemm() on the original operand.
///
/// A PackedB is immutable after pack() and safe to share across threads.
class PackedB {
 public:
  PackedB() = default;

  /// Packs op(B) — the K x N operand after resolving `tb` — at dtype `dt`.
  static PackedB pack(ConstMatView b, Trans tb, DType dt);

  DType dtype() const { return dtype_; }
  std::int64_t k() const { return k_; }
  std::int64_t n() const { return n_; }

  /// Bytes this weight logically occupies at its dtype: the quantized
  /// scale+payload stream (padding included) for kQ8_0/kQ4_0, K*N at
  /// 4 B / 2 B for kF32/kBf16. This is what memory accounting charges.
  std::uint64_t model_bytes() const { return model_bytes_; }

  /// Actual resident bytes of the packed buffer (f32/bf16 panels store
  /// plain fp32 floats; quantized panels equal model_bytes()).
  std::uint64_t storage_bytes() const {
    return static_cast<std::uint64_t>(storage_.size());
  }

  /// Start of the packed (jc-block, pc-block) cache-block stream.
  const std::uint8_t* cache_block(std::int64_t jcb, std::int64_t pcb) const {
    return storage_.data() +
           offsets_[static_cast<std::size_t>(jcb * pc_blocks_ + pcb)];
  }

 private:
  DType dtype_ = DType::kF32;
  std::int64_t k_ = 0;
  std::int64_t n_ = 0;
  std::int64_t pc_blocks_ = 0;
  std::uint64_t model_bytes_ = 0;
  std::vector<std::uint64_t> offsets_;  // (jcb * pc_blocks_ + pcb) -> byte off
  std::vector<std::uint8_t> storage_;
};

/// C = alpha * op(A) @ B + beta * C over a prepacked operand. Blocking,
/// accumulation order, and deterministic parallelism match gemm(); results
/// are bitwise identical for any thread-pool size.
void gemm_packed(ConstMatView a, Trans ta, const PackedB& b, MatView c,
                 float alpha = 1.0f, float beta = 0.0f);

/// Returns A @ B over a prepacked operand.
Tensor packed_matmul(const Tensor& a, const PackedB& b);

/// Observation-only counters (PR 3 discipline: attached metrics never change
/// results). Wires `tensor.gemm.calls`, `tensor.gemm.a_panels_packed`,
/// `tensor.gemm.b_panels_packed` counters and the
/// `tensor.workspace.high_water_bytes` gauge into `registry`. Pass nullptr
/// to detach; detached hot paths pay one pointer test per event site.
/// Attach/detach from a single thread while no gemm runs concurrently.
void attach_gemm_metrics(obs::Registry* registry);

}  // namespace burst::tensor
