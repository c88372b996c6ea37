#include "kernels/lm_head.hpp"
// burst-lint: hotpath

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "parallel/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/pack.hpp"
#include "tensor/softmax.hpp"
#include "tensor/workspace.hpp"

namespace burst::kernels {

using tensor::ConstMatView;
using tensor::MatView;
using tensor::Tensor;
using tensor::Trans;
using tensor::Workspace;

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

double dot_row(const Tensor& a, std::int64_t ra, const Tensor& b,
               std::int64_t rb) {
  double acc = 0.0;
  for (std::int64_t c = 0; c < a.cols(); ++c) {
    acc += static_cast<double>(a(ra, c)) * b(rb, c);
  }
  return acc;
}

// Row LogSumExp over a raw row through the shared softmax primitive.
float row_lse_raw(const float* row, std::int64_t n) {
  const float mx = tensor::row_max(row, n);
  if (mx == kNegInf) {
    return kNegInf;
  }
  return mx + std::log(tensor::exp_sub_sum(row, nullptr, n, mx));
}

// dLogits row = exp(logits - lse) / N, in place.
void softmax_grad_row(float* row, std::int64_t n, float lse, float inv_n) {
  tensor::exp_sub_sum(row, row, n, lse);
  for (std::int64_t c = 0; c < n; ++c) {
    row[c] *= inv_n;
  }
}

}  // namespace

LmHeadResult naive_lm_head_loss(const Tensor& h, const Tensor& w,
                                const std::vector<std::int64_t>& targets) {
  const std::int64_t n = h.rows();
  const std::int64_t d = h.cols();
  const std::int64_t v = w.rows();
  assert(w.cols() == d);
  assert(static_cast<std::int64_t>(targets.size()) == n);

  LmHeadResult out;
  // Logits = H W^T, the N x v matrix whose storage is the Figure 8 problem.
  Tensor logits = tensor::matmul_nt(h, w);
  out.peak_scratch_bytes =
      static_cast<std::uint64_t>(logits.numel()) * sizeof(float);
  out.flops += static_cast<std::uint64_t>(2) * n * v * d;

  Tensor lse = tensor::row_lse(logits);
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    loss += static_cast<double>(lse[i]) - logits(i, targets[static_cast<std::size_t>(i)]);
  }
  out.loss = loss / static_cast<double>(n);

  // dLogits = (softmax(logits) - onehot) / N, reusing the logits storage.
  tensor::exp_sub_row_inplace(logits, lse);
  const float inv_n = 1.0f / static_cast<float>(n);
  tensor::scale_inplace(logits, inv_n);
  for (std::int64_t i = 0; i < n; ++i) {
    logits(i, targets[static_cast<std::size_t>(i)]) -= inv_n;
  }

  out.dh = tensor::matmul(logits, w);
  out.dw = tensor::matmul_tn(logits, h);
  out.flops += static_cast<std::uint64_t>(4) * n * v * d;
  return out;
}

namespace {

using tensor::pack::b_panel_floats;
using tensor::pack::kKC;
using tensor::pack::kMR;
using tensor::pack::kNR;
using tensor::pack::pack_b_blocks;

// C += op(A) @ op(B), op(A) (m x k) read in place, op(B) packed by
// pack_b_blocks. Each kKC block's k-ordered sum is added once into C, as
// tensor::gemm adds it, so C gets gemm's bits for the same operands — and
// for the swapped ones, since the microkernel's acc += a * b is exact
// under operand swap.
void gemm_blocks(ConstMatView a, Trans ta, const float* bp, MatView c) {
  const bool no = ta == Trans::No;
  const std::int64_t k = no ? a.cols : a.rows;
  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, k - pc);
    const ConstMatView ak =
        no ? ConstMatView{a.data + pc, a.rows, kc, a.stride}
           : ConstMatView{a.data + pc * a.stride, kc, a.cols, a.stride};
    tensor::pack::gemm_block(ak, ta, bp + b_panel_floats(c.cols, pc),
                             kc * kNR, c);
  }
}

// dst (rows x cols, row pitch ld) = src^T, src dense cols x rows.
void transpose(const float* src, std::int64_t rows, std::int64_t cols,
               float* dst, std::int64_t ld) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      dst[r * ld + c] = src[c * rows + r];
    }
  }
}

// The one implementation of both tiled variants. `cache_strip` selects
// Algorithm 3 (true: keep the Bs x v strip from the forward pass, reuse it
// in backward) versus the recompute baseline (false: hold one tile and
// recompute it in backward).
//
// Per strip, W_head is read in place as the A operand of three products,
// with only strip-sized operands packed:
//   logits^T_t = W_t @ h^T          (h^T packed once per strip)
//   dW_t      += dlogits^T_t @ h    (h packed once per strip)
//   dh^T      += W_t^T @ dlogits^T_t, tiles t ascending
// Every C element gets the k-ordered sums, in the order, of the row-major
// products tensor::gemm(h, W_t^T), (dlogits^T, h) and (dlogits, W_t) —
// bit for bit. The strip is split across the pool where the split keeps
// that order: logits, tile LSEs, the softmax gradient and dW by vocab tile
// (each task owns its dW rows); dh^T by row blocks of d, each task walking
// the tiles in order; the LSE merge and the loss stay serial, per row in
// tile order.
//
// All scratch is borrowed from the thread-local Workspace arenas, so the
// strip loop performs zero heap allocations in steady state. A strip slot
// of b_panel_floats(bs, block_v) floats holds tile t row-major (bs x bv)
// through the softmax gradient and dW, then its packed transpose for dh.
LmHeadResult tiled_lm_head_impl(const Tensor& h, const Tensor& w,
                                const std::vector<std::int64_t>& targets,
                                std::int64_t block_s, std::int64_t block_v,
                                bool cache_strip) {
  const std::int64_t n = h.rows();
  const std::int64_t d = h.cols();
  const std::int64_t v = w.rows();
  assert(w.cols() == d);
  assert(static_cast<std::int64_t>(targets.size()) == n);
  block_s = std::min(block_s, n);
  block_v = std::min(block_v, v);

  LmHeadResult out;
  out.dh = Tensor::zeros(n, d);
  out.dw = Tensor::zeros(v, d);
  const float inv_n = 1.0f / static_cast<float>(n);
  double loss = 0.0;

  const std::int64_t tiles = block_v > 0 ? (v + block_v - 1) / block_v : 0;
  // Backward runs over groups of tiles that fit the strip buffer.
  const std::int64_t group = cache_strip ? tiles : 1;
  // dh^T row blocks: whole register tiles, about one per way.
  const auto ways = static_cast<std::int64_t>(parallel::concurrency());
  const std::int64_t dh_rows =
      std::max(kMR, ((d + ways - 1) / ways + kMR - 1) / kMR * kMR);
  const std::int64_t dh_blocks = (d + dh_rows - 1) / dh_rows;
  const float* wd = w.data();

  Workspace& ws = Workspace::tls();
  for (std::int64_t s0 = 0; s0 < n; s0 += block_s) {
    const std::int64_t s1 = std::min(n, s0 + block_s);
    const std::int64_t bs = s1 - s0;
    const std::int64_t slot = b_panel_floats(bs, block_v);

    Workspace::Scope scope(ws);
    float* lse = ws.alloc_f32(static_cast<std::size_t>(bs));
    std::fill(lse, lse + bs, kNegInf);
    float* tile_lse = ws.alloc_f32(static_cast<std::size_t>(tiles * bs));
    float* ht = ws.alloc_f32(static_cast<std::size_t>(b_panel_floats(bs, d)));
    float* hp = ws.alloc_f32(static_cast<std::size_t>(b_panel_floats(d, bs)));
    float* strip =
        ws.alloc_f32(static_cast<std::size_t>(cache_strip ? tiles * slot
                                                          : slot));
    float* dht = ws.alloc_f32(static_cast<std::size_t>(d * bs));
    std::fill(dht, dht + d * bs, 0.0f);
    const ConstMatView hs = h.row_block(s0, bs);
    pack_b_blocks(hs, Trans::Yes, d, 0, bs, ht);
    pack_b_blocks(hs, Trans::No, bs, 0, d, hp);

    const auto tile_cols = [&](std::int64_t t) {
      return std::min(block_v, v - t * block_v);
    };
    const auto tile_of = [&](std::int64_t t) {
      return strip + (cache_strip ? t * slot : 0);
    };
    // Logits tile t into `dst` (bs x bv, row-major) via logits^T in
    // `scratch` (bv x bs).
    const auto logits = [&](std::int64_t t, float* dst, float* scratch) {
      const std::int64_t bv = tile_cols(t);
      std::fill(scratch, scratch + bv * bs, 0.0f);
      gemm_blocks(ConstMatView{wd + t * block_v * d, bv, d, d}, Trans::No, ht,
                  MatView{scratch, bv, bs, bs});
      transpose(scratch, bs, bv, dst, bv);
    };

    // ---- forward by vocab tile: logits and each row's tile LSE ------------
    parallel::parallel_for(
        0, static_cast<std::size_t>(tiles), 1,
        [&](std::size_t t0, std::size_t t1) {
          Workspace& wst = Workspace::tls();
          for (auto t = static_cast<std::int64_t>(t0);
               t < static_cast<std::int64_t>(t1); ++t) {
            const std::int64_t bv = tile_cols(t);
            Workspace::Scope tscope(wst);
            float* scratch = wst.alloc_f32(static_cast<std::size_t>(bv * bs));
            float* tile = cache_strip ? tile_of(t)
                                      : wst.alloc_f32(
                                            static_cast<std::size_t>(bv * bs));
            logits(t, tile, scratch);
            for (std::int64_t r = 0; r < bs; ++r) {
              tile_lse[t * bs + r] = row_lse_raw(tile + r * bv, bv);
            }
          }
        });

    // ---- lse <- logaddexp over tiles in order, then the loss: -logit[target]
    // + lse (Algorithm 3 line 7) --------------------------------------------
    for (std::int64_t r = 0; r < bs; ++r) {
      for (std::int64_t t = 0; t < tiles; ++t) {
        const float a = lse[r];
        const float b = tile_lse[t * bs + r];
        if (b == kNegInf) {
          continue;
        }
        if (a == kNegInf) {
          lse[r] = b;
        } else {
          const float mx = std::max(a, b);
          lse[r] = mx + std::log(std::exp(a - mx) + std::exp(b - mx));
        }
      }
      const std::int64_t t = targets[static_cast<std::size_t>(s0 + r)];
      loss += static_cast<double>(lse[r]) - dot_row(h, s0 + r, w, t);
    }

    // ---- backward immediately, per group of tiles --------------------------
    for (std::int64_t g0 = 0; g0 < tiles; g0 += group) {
      const std::int64_t g1 = std::min(tiles, g0 + group);
      // dLogits = (exp(logits - lse) - onehot) / N, then dW_t, then the
      // tile's packed transpose for dh. (The paper's Algorithm 3 writes
      // "+E"; the CE gradient is softmax minus the one-hot indicator — see
      // EXPERIMENTS.md, "paper typos".)
      parallel::parallel_for(
          static_cast<std::size_t>(g0), static_cast<std::size_t>(g1), 1,
          [&](std::size_t t0, std::size_t t1) {
            Workspace& wst = Workspace::tls();
            for (auto t = static_cast<std::int64_t>(t0);
                 t < static_cast<std::int64_t>(t1); ++t) {
              const std::int64_t j = t * block_v;
              const std::int64_t bv = tile_cols(t);
              Workspace::Scope tscope(wst);
              float* scratch =
                  wst.alloc_f32(static_cast<std::size_t>(bv * bs));
              float* tile = tile_of(t);
              if (!cache_strip) {
                logits(t, tile, scratch);
              }
              for (std::int64_t r = 0; r < bs; ++r) {
                float* drow = tile + r * bv;
                softmax_grad_row(drow, bv, lse[r], inv_n);
                const std::int64_t tg =
                    targets[static_cast<std::size_t>(s0 + r)];
                if (tg >= j && tg < j + bv) {
                  drow[tg - j] -= inv_n;
                }
              }
              gemm_blocks(ConstMatView{tile, bs, bv, bv}, Trans::Yes, hp,
                          out.dw.row_block(j, bv));
              std::copy(tile, tile + bs * bv, scratch);
              pack_b_blocks(ConstMatView{scratch, bs, bv, bv}, Trans::Yes, bv,
                            0, bs, tile);
            }
          });
      parallel::parallel_for(
          0, static_cast<std::size_t>(dh_blocks), 1,
          [&](std::size_t b0, std::size_t b1) {
            const auto c0 = static_cast<std::int64_t>(b0) * dh_rows;
            const std::int64_t c1 =
                std::min(d, static_cast<std::int64_t>(b1) * dh_rows);
            for (std::int64_t t = g0; t < g1; ++t) {
              gemm_blocks(
                  ConstMatView{wd + t * block_v * d + c0, tile_cols(t),
                               c1 - c0, d},
                  Trans::Yes, tile_of(t),
                  MatView{dht + c0 * bs, c1 - c0, bs, bs});
            }
          });
    }
    transpose(dht, bs, d, out.dh.data() + s0 * d, d);

    const std::int64_t cached_cols = cache_strip ? v : block_v;
    out.peak_scratch_bytes = std::max<std::uint64_t>(
        out.peak_scratch_bytes,
        static_cast<std::uint64_t>(bs) * cached_cols * sizeof(float));
    out.flops += static_cast<std::uint64_t>(cache_strip ? 6 : 8) * bs * v * d;
  }

  out.loss = loss / static_cast<double>(n);
  return out;
}

}  // namespace

LmHeadResult tiled_recompute_lm_head_loss(
    const Tensor& h, const Tensor& w,
    const std::vector<std::int64_t>& targets, std::int64_t block_s,
    std::int64_t block_v) {
  return tiled_lm_head_impl(h, w, targets, block_s, block_v,
                            /*cache_strip=*/false);
}

LmHeadResult fused_lm_head_loss(const Tensor& h, const Tensor& w,
                                const std::vector<std::int64_t>& targets,
                                std::int64_t block_s, std::int64_t block_v) {
  return tiled_lm_head_impl(h, w, targets, block_s, block_v,
                            /*cache_strip=*/true);
}

}  // namespace burst::kernels
