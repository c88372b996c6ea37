#include "kernels/lm_head.hpp"
// burst-lint: hotpath

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/softmax.hpp"
#include "tensor/workspace.hpp"

namespace burst::kernels {

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

// Shared implementation for the two tiled variants. `cache_strip` selects
// Algorithm 3 (true: keep the Bs x v strip from the forward loop, reuse it in
// backward) versus the recompute baseline (false: recompute each tile).
//
// All logits scratch is borrowed from the thread-local Workspace arena, so
// the strip loop performs zero heap allocations in steady state. The cached
// strip is one contiguous Bs x v buffer; vocab tile vt lives at column
// offset j = vt * block_v, i.e. float offset bs * j.
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

  Workspace& ws = Workspace::tls();
  for (std::int64_t s0 = 0; s0 < n; s0 += block_s) {
    const std::int64_t s1 = std::min(n, s0 + block_s);
    const std::int64_t bs = s1 - s0;

    Workspace::Scope scope(ws);
    float* lse = ws.alloc_f32(static_cast<std::size_t>(bs));
    std::fill(lse, lse + bs, kNegInf);
    // Cached variant holds the whole strip; recompute variant reuses one
    // tile-sized buffer for both the forward probe and the backward rebuild.
    float* strip =
        ws.alloc_f32(static_cast<std::size_t>(cache_strip ? bs * v
                                                          : bs * block_v));
    std::uint64_t strip_bytes = 0;

    // ---- forward over vocab tiles: online LSE per strip row --------------
    for (std::int64_t j = 0; j < v; j += block_v) {
      const std::int64_t j1 = std::min(v, j + block_v);
      const std::int64_t bv = j1 - j;
      float* tile = cache_strip ? strip + bs * j : strip;
      MatView logits{tile, bs, bv, bv};
      tensor::gemm(h.row_block(s0, bs), Trans::No, w.row_block(j, bv),
                   Trans::Yes, logits, 1.0f, 0.0f);
      out.flops += static_cast<std::uint64_t>(2) * bs * bv * d;
      for (std::int64_t r = 0; r < bs; ++r) {
        // lse <- logaddexp(lse, tile_lse), numerically stable.
        const float a = lse[r];
        const float b = row_lse_raw(tile + r * bv, bv);
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
      if (cache_strip) {
        strip_bytes += static_cast<std::uint64_t>(bs) * bv * sizeof(float);
      } else {
        strip_bytes = std::max<std::uint64_t>(
            strip_bytes, static_cast<std::uint64_t>(bs) * bv * sizeof(float));
      }
    }
    out.peak_scratch_bytes = std::max(out.peak_scratch_bytes, strip_bytes);

    // ---- loss: -logit[target] + lse (Algorithm 3 line 7) -----------------
    for (std::int64_t r = 0; r < bs; ++r) {
      const std::int64_t t = targets[static_cast<std::size_t>(s0 + r)];
      loss += static_cast<double>(lse[r]) - dot_row(h, s0 + r, w, t);
    }

    // ---- backward immediately, per vocab tile -----------------------------
    for (std::int64_t j = 0; j < v; j += block_v) {
      const std::int64_t j1 = std::min(v, j + block_v);
      const std::int64_t bv = j1 - j;
      float* tile = cache_strip ? strip + bs * j : strip;
      MatView dlogits{tile, bs, bv, bv};
      if (!cache_strip) {
        tensor::gemm(h.row_block(s0, bs), Trans::No, w.row_block(j, bv),
                     Trans::Yes, dlogits, 1.0f, 0.0f);
        out.flops += static_cast<std::uint64_t>(2) * bs * bv * d;
      }
      // dLogits = (exp(logits - lse) - onehot) / N. (The paper's Algorithm 3
      // writes "+E"; the CE gradient is softmax minus the one-hot indicator —
      // see EXPERIMENTS.md, "paper typos".)
      for (std::int64_t r = 0; r < bs; ++r) {
        float* drow = tile + r * bv;
        softmax_grad_row(drow, bv, lse[r], inv_n);
        const std::int64_t t = targets[static_cast<std::size_t>(s0 + r)];
        if (t >= j && t < j1) {
          drow[t - j] -= inv_n;
        }
      }
      tensor::gemm(dlogits, Trans::No, w.row_block(j, bv), Trans::No,
                   out.dh.row_block(s0, bs), 1.0f, 1.0f);
      tensor::gemm(dlogits, Trans::Yes, h.row_block(s0, bs), Trans::No,
                   out.dw.row_block(j, bv), 1.0f, 1.0f);
      out.flops += static_cast<std::uint64_t>(4) * bs * bv * d;
    }
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
