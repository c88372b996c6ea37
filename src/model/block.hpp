// The one transformer block (Eq. 2-3 of the paper):
//   H = ATTN(X) W_o + X,  Y = relu(H W_1) W_2 + H.
// Every forward in the repo — serial training, chunked prefill, batched
// decode (dense and quantized), and the distributed step, its checkpoint
// recompute and its forward-only pass (which distributed prefill runs) —
// runs this body and differs only in where attention reads K/V from: each
// caller passes its attention source as an AttendFn. The GEMM FLOPs the
// virtual clock charges for the body are stated once, below it. The layer
// type picks the GEMM by overload: dense LayerWeights project through
// matmul, PackedWeights::Layer through packed_matmul. The serving forwards
// pass `bf16_boundary` from their packed set's spec to round activations to
// bf16 at every layer boundary (DESIGN.md section 2, "One transformer
// block").
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "kernels/rope.hpp"
#include "model/config.hpp"
#include "model/transformer.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace burst::model {

/// x @ W. The weight's type picks the GEMM: dense fp32 weights, or panels
/// packed once at the serving dtype.
inline tensor::Tensor project(const tensor::Tensor& x,
                              const tensor::Tensor& w) {
  return tensor::matmul(x, w);
}
inline tensor::Tensor project(const tensor::Tensor& x,
                              const tensor::PackedB& w) {
  return tensor::packed_matmul(x, w);
}

/// Activations leaving a layer (the embedding output or a block output):
/// rounded to bf16 on the quantized serving path, untouched otherwise.
inline void layer_boundary(tensor::Tensor& x, bool bf16_boundary) {
  if (bf16_boundary) {
    tensor::round_bf16_inplace(x);
  }
}

/// Attention source: (Q, K, V) projections [rows, d_model | d_kv] -> the
/// concatenated head outputs [rows, d_model].
using AttendFn = std::function<tensor::Tensor(const tensor::Tensor& q_all,
                                              const tensor::Tensor& k_all,
                                              const tensor::Tensor& v_all)>;

/// Column blocks of `all`, one per head of width `dh`, each rotated by
/// `rope`'s angles when given: the table of the rows' *global* positions
/// (the CP correctness trap the kernels/rope.hpp header documents). One
/// parallel_for chunk per head.
inline std::vector<tensor::Tensor> split_heads(
    const tensor::Tensor& all, std::int64_t heads, std::int64_t dh,
    const kernels::RopeTable* rope = nullptr) {
  std::vector<tensor::Tensor> out(static_cast<std::size_t>(heads));
  parallel::parallel_for(0, out.size(), 1, [&](std::size_t h0,
                                               std::size_t h1) {
    for (std::size_t h = h0; h < h1; ++h) {
      out[h] = tensor::copy_cols(all, static_cast<std::int64_t>(h) * dh, dh);
      if (rope != nullptr) {
        kernels::apply_rope_inplace(out[h], *rope);
      }
    }
  });
  return out;
}

/// The inverse of split_heads without RoPE: the heads side by side in
/// `width` columns. One parallel_for chunk per head once the output is
/// larger than one elementwise chunk.
inline tensor::Tensor concat_heads(const std::vector<tensor::Tensor>& heads,
                                   std::int64_t width) {
  assert(static_cast<std::int64_t>(heads.size()) * heads.front().cols() ==
         width);
  tensor::Tensor out =
      tensor::Tensor::uninitialized({heads.front().rows(), width});
  const auto copy = [&](std::size_t h0, std::size_t h1) {
    for (std::size_t h = h0; h < h1; ++h) {
      tensor::set_cols(out, static_cast<std::int64_t>(h) * heads[h].cols(),
                       heads[h]);
    }
  };
  if (out.numel() <= tensor::kElementwiseChunk) {
    copy(0, heads.size());
  } else {
    parallel::parallel_for(0, heads.size(), 1, copy);
  }
  return out;
}

/// What a block keeps for its W_2 output and its backward.
struct BlockActs {
  tensor::Tensor attn;   // concatenated head outputs
  tensor::Tensor h;      // attn W_o + X
  tensor::Tensor u_pre;  // H W_1
  tensor::Tensor u;      // relu(u_pre)
};

/// The block up to the FFN hidden state: Q/K/V projections, `attend`, W_o
/// plus the residual, W_1 and ReLU.
template <class Layer>
BlockActs block_hidden(const Layer& w, const tensor::Tensor& x,
                       const AttendFn& attend) {
  const tensor::Tensor q_all = project(x, w.wq);
  const tensor::Tensor k_all = project(x, w.wk);
  const tensor::Tensor v_all = project(x, w.wv);
  BlockActs a;
  a.attn = attend(q_all, k_all, v_all);
  a.h = project(a.attn, w.wo);
  tensor::add_inplace(a.h, x);
  a.u_pre = project(a.h, w.w1);
  a.u = tensor::relu(a.u_pre);
  return a;
}

/// The block output Y = U W_2 + H, at the layer boundary.
template <class Layer>
tensor::Tensor block_output(const Layer& w, const BlockActs& a,
                            bool bf16_boundary = false) {
  tensor::Tensor y = project(a.u, w.w2);
  tensor::add_inplace(y, a.h);
  layer_boundary(y, bf16_boundary);
  return y;
}

/// GEMM FLOPs the virtual clock charges for the block's projections over
/// `rows` rows, 2·rows·in·out each: the Q/K/V projections, W_o, and one FFN
/// matrix (W_1 or W_2). A backward GEMM pass costs twice its forward.
inline std::uint64_t gemm_flops(std::int64_t rows, std::int64_t in,
                                std::int64_t out) {
  return 2 * static_cast<std::uint64_t>(rows) *
         static_cast<std::uint64_t>(in) * static_cast<std::uint64_t>(out);
}
inline std::uint64_t qkv_flops(const ModelConfig& m, std::int64_t rows) {
  return gemm_flops(rows, m.d_model, m.d_model + 2 * m.d_kv());
}
inline std::uint64_t wo_flops(const ModelConfig& m, std::int64_t rows) {
  return gemm_flops(rows, m.d_model, m.d_model);
}
inline std::uint64_t ffn_matrix_flops(const ModelConfig& m,
                                      std::int64_t rows) {
  return gemm_flops(rows, m.d_model, m.d_ff);
}

/// The block forward's GEMM FLOPs (block_hidden, then block_output).
inline std::uint64_t block_flops(const ModelConfig& m, std::int64_t rows) {
  return qkv_flops(m, rows) + wo_flops(m, rows) + 2 * ffn_matrix_flops(m, rows);
}

/// The LM head's logits GEMM over `rows` rows.
inline std::uint64_t head_flops(const ModelConfig& m, std::int64_t rows) {
  return gemm_flops(rows, m.d_model, m.vocab);
}

/// Gradients flowing out of the FFN and W_o.
struct BlockFfnGrads {
  tensor::Tensor d_h;     // dL/dH, including the residual from Y
  tensor::Tensor d_attn;  // dL/d(concatenated head outputs)
};

/// Backward through W_2, ReLU, W_1 and W_o; accumulates their gradients.
inline BlockFfnGrads block_backward_ffn(const LayerWeights& w,
                                        const BlockActs& a,
                                        const tensor::Tensor& d_y,
                                        LayerGrads& g) {
  tensor::Tensor du = tensor::matmul_nt(d_y, w.w2);
  tensor::add_inplace(g.w2, tensor::matmul_tn(a.u, d_y));
  du = tensor::relu_backward(du, a.u_pre);
  BlockFfnGrads out;
  out.d_h = tensor::matmul_nt(du, w.w1);
  tensor::add_inplace(g.w1, tensor::matmul_tn(a.h, du));
  tensor::add_inplace(out.d_h, d_y);  // residual
  out.d_attn = tensor::matmul_nt(out.d_h, w.wo);
  tensor::add_inplace(g.wo, tensor::matmul_tn(a.attn, out.d_h));
  return out;
}

/// Backward through the Q/K/V projections given the pre-RoPE head gradients
/// (concatenated) and dH; accumulates their gradients and returns dX.
inline tensor::Tensor block_backward_qkv(
    const LayerWeights& w, const tensor::Tensor& x, tensor::Tensor d_h,
    const tensor::Tensor& dq, const tensor::Tensor& dk,
    const tensor::Tensor& dv, LayerGrads& g) {
  tensor::Tensor dx = std::move(d_h);  // residual path
  tensor::add_inplace(dx, tensor::matmul_nt(dq, w.wq));
  tensor::add_inplace(dx, tensor::matmul_nt(dk, w.wk));
  tensor::add_inplace(dx, tensor::matmul_nt(dv, w.wv));
  tensor::add_inplace(g.wq, tensor::matmul_tn(x, dq));
  tensor::add_inplace(g.wk, tensor::matmul_tn(x, dk));
  tensor::add_inplace(g.wv, tensor::matmul_tn(x, dv));
  return dx;
}

/// Embedding lookup: row i is w_embed's row ids[i], at the layer boundary.
inline tensor::Tensor embed(const ModelWeights& w, const std::int64_t* ids,
                            std::int64_t count, bool bf16_boundary = false) {
  const std::int64_t d = w.w_embed.cols();
  tensor::Tensor x(count, d);
  for (std::int64_t i = 0; i < count; ++i) {
    assert(ids[i] >= 0 && ids[i] < w.w_embed.rows());
    const float* row = w.w_embed.data() + ids[i] * d;
    std::copy(row, row + d, x.data() + i * d);
  }
  layer_boundary(x, bf16_boundary);
  return x;
}

/// Embedding backward: scatter-adds row i of `dx` into row ids[i] of
/// `g_embed`, in ascending row order.
inline void embed_backward(const std::int64_t* ids, const tensor::Tensor& dx,
                           tensor::Tensor& g_embed) {
  const std::int64_t d = dx.cols();
  for (std::int64_t i = 0; i < dx.rows(); ++i) {
    float* row = g_embed.data() + ids[i] * d;
    for (std::int64_t c = 0; c < d; ++c) {
      row[c] += dx(i, c);
    }
  }
}

}  // namespace burst::model
