// Elementwise / reduction primitives shared by the attention kernels, the
// LM-head fusion, and the toy transformer. All functions are scalar-CPU and
// deterministic; accumulation orders are fixed so distributed == serial
// comparisons hold to tight floating-point tolerances.
//
// The passes marked "pooled" split tensors of more than kElementwiseChunk
// elements into chunks of that many at fixed boundaries and run them on the
// global pool. Each element keeps one writer and the same expression, so
// the result is bitwise the same at every pool size; smaller (decode-sized)
// tensors stay on the calling thread.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace burst::tensor {

/// Elements per chunk of a pooled elementwise pass, and the size above
/// which a pass splits at all.
inline constexpr std::int64_t kElementwiseChunk = std::int64_t{1} << 15;

/// y += x (same shape). Pooled.
void add_inplace(Tensor& y, const Tensor& x);

/// y -= x (same shape).
void sub_inplace(Tensor& y, const Tensor& x);

/// y *= s. Pooled.
void scale_inplace(Tensor& y, float s);

/// y += alpha * x.
void axpy(float alpha, const Tensor& x, Tensor& y);

/// Returns a + b. Pooled.
Tensor add(const Tensor& a, const Tensor& b);

/// Returns parts[0] + parts[1] + ... (same shapes), each element summed in
/// list order, so the bits equal those of successive add_inplace calls onto
/// a copy of parts[0]; one pass over the output. Pooled.
Tensor sum_in_order(const std::vector<const Tensor*>& parts);

/// Returns a - b.
Tensor sub(const Tensor& a, const Tensor& b);

/// Row-wise sum of A ∘ B: out[i] = sum_j A(i,j) * B(i,j).
/// This is the `D = rowsum(∇O ∘ O)` quantity from Algorithms 1–2.
Tensor rowsum_product(const Tensor& a, const Tensor& b);

/// Row-wise LogSumExp of a matrix (Eq. 6 of the paper). Numerically stable.
Tensor row_lse(const Tensor& s);

/// In place: S(i, j) <- exp(S(i, j) - lse[i]).
void exp_sub_row_inplace(Tensor& s, const Tensor& lse);

/// In place numerically-stable softmax over each row.
void softmax_rows_inplace(Tensor& s);

/// Online-softmax merge of partial attention results (the aggregation that
/// RingAttention/BurstAttention run as K/V partitions stream past):
///   lse_new = log(exp(lse_acc) + exp(lse_part))
///   o_acc   = exp(lse_acc - lse_new) * o_acc + exp(lse_part - lse_new) * o_part
/// Rows whose partial lse is -inf (fully masked partition) are skipped.
void merge_online_softmax(Tensor& o_acc, Tensor& lse_acc, const Tensor& o_part,
                          const Tensor& lse_part);

/// out = A^T (copy).
Tensor transpose(const Tensor& a);

/// Deep copy of columns [col_begin, col_begin+num_cols) (head slicing).
Tensor copy_cols(const Tensor& a, std::int64_t col_begin,
                 std::int64_t num_cols);

/// dst = a[:, col_begin:col_begin+dst.cols()], into a pre-sized matrix.
/// Allocation-free head slicing for hot loops that reuse one slice buffer.
void copy_cols_into(const Tensor& a, std::int64_t col_begin, Tensor& dst);

/// dst[:, col_begin:col_begin+src.cols()] += src.
void add_cols_inplace(Tensor& dst, std::int64_t col_begin, const Tensor& src);

/// dst[:, col_begin:col_begin+src.cols()] = src.
void set_cols(Tensor& dst, std::int64_t col_begin, const Tensor& src);

/// Vertically concatenates equal-width matrices.
Tensor concat_rows(const std::vector<Tensor>& parts);

/// max_ij |a - b|.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// True when max_abs_diff(a, b) <= atol + rtol * max|b|.
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-5f);

/// Frobenius norm.
float norm(const Tensor& a);

/// Rounds every element to the nearest bf16-representable value (round to
/// nearest even on the top 16 bits). Used to study the numerical behaviour
/// of the distributed algorithms under the paper's training dtype. Pooled.
void round_bf16_inplace(Tensor& t);

/// ReLU forward: out = max(x, 0). Pooled.
Tensor relu(const Tensor& x);

/// ReLU backward: returns dx = dy ∘ 1[x > 0], as a select: dx is 0 where
/// x <= 0 and dy elsewhere, so a NaN in x passes dy through. Pooled.
Tensor relu_backward(const Tensor& dy, const Tensor& x);

}  // namespace burst::tensor
