// Rotary position embeddings (RoPE), as used by LLaMA.
//
// RoPE rotates each (2i, 2i+1) feature pair of Q and K by an angle
// proportional to the token's *global* position. Under context parallelism
// this is a classic correctness trap: a device's local row index is not its
// token position once zigzag/striped balance reorders the sequence, so the
// rotation must consult the shard's IndexMap — exactly what these helpers
// take. The rotation is orthogonal, so the backward pass is the inverse
// rotation applied to the gradients.
//
// The angles depend only on the positions and the head width, so a caller
// builds one RopeTable per set of positions and rotates every head (and
// every layer) from it: the trig runs once per (row, pair), not once per
// head.
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/index_map.hpp"
#include "tensor/tensor.hpp"

namespace burst::kernels {

/// cos and sin of every (row, pair) angle pos(row) * theta^(-2i/d), rounded
/// to float. The inverse rotation reads sin negated: glibc's cos is even
/// and its sin odd bit for bit, so that equals rotating by the negated
/// angle.
class RopeTable {
 public:
  /// Angles of `positions`' rows for heads `head_dim` wide (even). Rows are
  /// split over the pool; each entry has one writer.
  RopeTable(const IndexMap& positions, std::int64_t head_dim,
            float theta_base = 10000.0f);

  std::int64_t rows() const { return rows_; }
  std::int64_t head_dim() const { return 2 * pairs_; }
  const float* cos_row(std::int64_t r) const {
    return cos_.data() + r * pairs_;
  }
  const float* sin_row(std::int64_t r) const {
    return sin_.data() + r * pairs_;
  }

 private:
  std::int64_t rows_;
  std::int64_t pairs_;
  std::vector<float> cos_;
  std::vector<float> sin_;
};

/// Rotates rows of `x` ([n, d]) by table rows [row0, row0 + n).
void apply_rope_inplace(tensor::Tensor& x, const RopeTable& table,
                        std::int64_t row0 = 0);

/// Inverse rotation (backward pass for gradients w.r.t. pre-RoPE values).
void apply_rope_inverse_inplace(tensor::Tensor& x, const RopeTable& table,
                                std::int64_t row0 = 0);

/// Rotates rows of `x` ([n, d], d even) by their global positions: builds
/// the table, then applies it.
void apply_rope_inplace(tensor::Tensor& x, const IndexMap& positions,
                        float theta_base = 10000.0f);

/// Inverse rotation at `positions`: builds the table, then applies it.
void apply_rope_inverse_inplace(tensor::Tensor& x, const IndexMap& positions,
                                float theta_base = 10000.0f);

}  // namespace burst::kernels
