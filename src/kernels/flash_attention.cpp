#include "kernels/flash_attention.hpp"
// burst-lint: hotpath

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
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
// Tile sizes chosen so toy-scale tests exercise full tiles, remainders, and
// the skip logic.
constexpr std::int64_t kTileQ = 32;
constexpr std::int64_t kTileK = 32;

// Observation-only metric handles (see attach_attention_metrics).
struct AttnMetrics {
  obs::Counter* tiles_computed = nullptr;
  obs::Counter* tiles_skipped = nullptr;
  obs::Gauge* ws_high_water = nullptr;
};
AttnMetrics g_metrics;

inline void note_tile_computed(KernelStats* stats, std::uint64_t flops) {
  if (stats != nullptr) {
    ++stats->tiles_computed;
    stats->flops += flops;
  }
  if (g_metrics.tiles_computed != nullptr) {
    g_metrics.tiles_computed->add(1);
  }
}

inline void note_tile_skipped(KernelStats* stats) {
  if (stats != nullptr) {
    ++stats->tiles_skipped;
  }
  if (g_metrics.tiles_skipped != nullptr) {
    g_metrics.tiles_skipped->add(1);
  }
}

inline void note_workspace_high_water(const Workspace& ws) {
  if (g_metrics.ws_high_water != nullptr) {
    g_metrics.ws_high_water->set_max(
        static_cast<double>(ws.high_water_bytes()));
  }
}

// Sets the masked scores of a kPartial tile (bq x bk, row-major) to -inf.
// `qg` holds the tile's global query positions; `kg` is bk-entry scratch.
void mask_partial_tile(const MaskSpec& mask, const std::int64_t* qg,
                       std::int64_t bq, const IndexMap& kmap, std::int64_t k0,
                       std::int64_t bk, std::int64_t* kg, float* s) {
  for (std::int64_t j = 0; j < bk; ++j) {
    kg[j] = kmap.global(k0 + j);
  }
  for (std::int64_t i = 0; i < bq; ++i) {
    mask.mask_row(qg[i], kg, bk, s + i * bk);
  }
}

// a . b over n floats in kDotLanes lane accumulators (lane l owns elements
// c with c % kDotLanes == l) combined in a fixed pairwise tree, so the
// result does not depend on whether the compiler vectorized the loop.
constexpr std::int64_t kDotLanes = 8;
inline float dot_lanes(const float* a, const float* b, std::int64_t n) {
  float acc[kDotLanes] = {};
  std::int64_t c = 0;
  for (; c + kDotLanes <= n; c += kDotLanes) {
    for (std::int64_t l = 0; l < kDotLanes; ++l) {
      acc[l] += a[c + l] * b[c + l];
    }
  }
  for (std::int64_t l = 0; c + l < n; ++l) {
    acc[l] += a[c + l] * b[c + l];
  }
  return ((acc[0] + acc[4]) + (acc[2] + acc[6])) +
         ((acc[1] + acc[5]) + (acc[3] + acc[7]));
}

// Rows [r0, r0+n) of a view, sharing storage.
ConstMatView sub_rows(ConstMatView m, std::int64_t r0, std::int64_t n) {
  assert(r0 >= 0 && r0 + n <= m.rows);
  return ConstMatView(m.data + r0 * m.stride, n, m.cols, m.stride);
}

}  // namespace

void flash_forward_partial(const Tensor& q, const IndexMap& qmap,
                           const Tensor& k, const Tensor& v,
                           const IndexMap& kmap, const MaskSpec& mask,
                           float scale, Tensor& o_acc, Tensor& lse_acc,
                           KernelStats* stats) {
  flash_forward_partial(q.view(), qmap, k.view(), v.view(), kmap, mask, scale,
                        o_acc.view(), lse_acc, stats);
}

void flash_forward_partial(ConstMatView q, const IndexMap& qmap,
                           ConstMatView k, ConstMatView v,
                           const IndexMap& kmap, const MaskSpec& mask,
                           float scale, tensor::MatView o_acc, Tensor& lse_acc,
                           KernelStats* stats) {
  const std::int64_t nq = q.rows;
  const std::int64_t nk = k.rows;
  const std::int64_t d = q.cols;
  assert(k.cols == d && v.cols == d && v.rows == nk);
  assert(qmap.size() == nq && kmap.size() == nk);
  assert(o_acc.rows == nq && o_acc.cols == d && lse_acc.numel() == nq);

  Workspace& ws = Workspace::tls();
  for (std::int64_t q0 = 0; q0 < nq; q0 += kTileQ) {
    const std::int64_t q1 = std::min(nq, q0 + kTileQ);
    const std::int64_t bq = q1 - q0;

    // All per-tile scratch is borrowed from the thread-local arena: zero
    // heap allocations in steady state (asserted by test_workspace.cpp).
    Workspace::Scope scope(ws);
    float* m = ws.alloc_f32(static_cast<std::size_t>(bq));
    float* l = ws.alloc_f32(static_cast<std::size_t>(bq));
    float* corr = ws.alloc_f32(static_cast<std::size_t>(bq));
    float* o_tile = ws.alloc_f32(static_cast<std::size_t>(bq * d));
    float* s = ws.alloc_f32(static_cast<std::size_t>(bq * kTileK));
    std::int64_t* qg = ws.alloc_i64(static_cast<std::size_t>(bq));
    std::int64_t* kg = ws.alloc_i64(static_cast<std::size_t>(kTileK));
    std::fill(m, m + bq, kNegInf);
    std::fill(l, l + bq, 0.0f);
    std::fill(o_tile, o_tile + bq * d, 0.0f);
    for (std::int64_t i = 0; i < bq; ++i) {
      qg[i] = qmap.global(q0 + i);
    }
    const MatView oview{o_tile, bq, d, d};

    for (std::int64_t k0 = 0; k0 < nk; k0 += kTileK) {
      const std::int64_t k1 = std::min(nk, k0 + kTileK);
      const std::int64_t bk = k1 - k0;
      const auto cls = classify_tile(mask, qmap, q0, q1, kmap, k0, k1);
      if (cls == MaskSpec::TileClass::kNone) {
        note_tile_skipped(stats);
        continue;
      }

      MatView sview{s, bq, bk, bk};
      tensor::gemm(sub_rows(q, q0, bq), Trans::No, sub_rows(k, k0, bk),
                   Trans::Yes, sview, scale, 0.0f);
      if (cls == MaskSpec::TileClass::kPartial) {
        mask_partial_tile(mask, qg, bq, kmap, k0, bk, kg, s);
      }

      // Online softmax per row: S becomes P = exp(S - m_new) in place and
      // the running (m, l) rescale by corr = exp(m_old - m_new).
      for (std::int64_t i = 0; i < bq; ++i) {
        float* srow = s + i * bk;
        const float mt = tensor::row_max(srow, bk);
        if (mt == kNegInf) {
          // Every key in this tile is masked for this row: P row is zero.
          std::fill(srow, srow + bk, 0.0f);
          corr[i] = 1.0f;
          continue;
        }
        const float m_new = std::max(m[i], mt);
        corr[i] = tensor::exp_f32(m[i] - m_new);  // 0 while m[i] is -inf
        l[i] = l[i] * corr[i] + tensor::exp_sub_sum(srow, srow, bk, m_new);
        m[i] = m_new;
      }

      // O = diag(corr) O + P V.
      for (std::int64_t i = 0; i < bq; ++i) {
        float* orow = o_tile + i * d;
        for (std::int64_t c = 0; c < d; ++c) {
          orow[c] *= corr[i];
        }
      }
      tensor::gemm(sview, Trans::No, sub_rows(v, k0, bk), Trans::No, oview,
                   1.0f, 1.0f);

      note_tile_computed(
          stats, attention_pair_flops(static_cast<std::uint64_t>(bq) *
                                          static_cast<std::uint64_t>(bk),
                                      d));
    }

    // Normalize the tile and merge into the global accumulator in place
    // (same arithmetic as tensor::merge_online_softmax, row by row).
    for (std::int64_t i = 0; i < bq; ++i) {
      const float li = l[i];
      if (li <= 0.0f) {
        continue;  // partition fully masked for this row
      }
      const float lse_part = m[i] + std::log(li);
      const float inv = 1.0f / li;
      float* orow = o_tile + i * d;
      for (std::int64_t c = 0; c < d; ++c) {
        orow[c] *= inv;
      }
      float* arow = o_acc.data + (q0 + i) * o_acc.stride;
      const float la = lse_acc[q0 + i];
      if (la == kNegInf) {
        lse_acc[q0 + i] = lse_part;
        for (std::int64_t c = 0; c < d; ++c) {
          arow[c] = orow[c];
        }
        continue;
      }
      const float lmax = std::max(la, lse_part);
      const float wa = std::exp(la - lmax);
      const float wp = std::exp(lse_part - lmax);
      const float lnew = lmax + std::log(wa + wp);
      const float ca = std::exp(la - lnew);
      const float cp = std::exp(lse_part - lnew);
      lse_acc[q0 + i] = lnew;
      for (std::int64_t c = 0; c < d; ++c) {
        arow[c] = ca * arow[c] + cp * orow[c];
      }
    }
  }
  note_workspace_high_water(ws);
}

float flash_decode_step(ConstMatView q, ConstMatView k, ConstMatView v,
                        std::int64_t q_pos, const MaskSpec& mask, float scale,
                        tensor::MatView o_row, KernelStats* stats) {
  assert(q.rows == 1 && o_row.rows == 1);
  const std::int64_t d = q.cols;
  const std::int64_t nk = k.rows;
  assert(k.cols == d && v.cols == d && v.rows == nk && o_row.cols == d);
  float* o = o_row.data;
  std::fill(o, o + d, 0.0f);

  // Pass 1: scaled scores, masked keys at -inf.
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  float* s = ws.alloc_f32(static_cast<std::size_t>(nk));
  std::uint64_t pairs = 0;
  for (std::int64_t j = 0; j < nk; ++j) {
    const bool allowed = mask.allowed(q_pos, j);
    pairs += allowed ? 1 : 0;
    s[j] = tensor::select_f32(
        allowed, dot_lanes(q.data, k.data + j * k.stride, d) * scale, kNegInf);
  }
  note_tile_computed(stats, attention_pair_flops(pairs, d));
  note_workspace_high_water(ws);
  const float m = tensor::row_max(s, nk);
  if (m == kNegInf) {
    return kNegInf;  // fully masked row; o_row stays zero
  }

  // Pass 2: P = exp(S - m) in place (masked keys give exact zeros), then
  // O = P V / sum(P), vectorized over d.
  const float l = tensor::exp_sub_sum(s, s, nk, m);
  for (std::int64_t j = 0; j < nk; ++j) {
    const float p = s[j];
    const float* vrow = v.data + j * v.stride;
    for (std::int64_t c = 0; c < d; ++c) {
      o[c] += p * vrow[c];
    }
  }
  const float inv = 1.0f / l;
  for (std::int64_t c = 0; c < d; ++c) {
    o[c] *= inv;
  }
  return m + std::log(l);
}

AttnResult flash_forward(const Tensor& q, const IndexMap& qmap,
                         const Tensor& k, const Tensor& v,
                         const IndexMap& kmap, const MaskSpec& mask,
                         float scale, KernelStats* stats) {
  AttnResult r;
  r.o = Tensor::zeros(q.rows(), q.cols());
  // burst-lint: allow(no-hotpath-alloc) output tensors are owned by the caller; only scratch borrows from the Workspace arena (DESIGN.md section 11)
  r.lse = Tensor(q.rows());
  r.lse.fill(kNegInf);
  flash_forward_partial(q, qmap, k, v, kmap, mask, scale, r.o, r.lse, stats);
  return r;
}

Tensor attention_dvec(const Tensor& d_out, const Tensor& o) {
  return tensor::rowsum_product(d_out, o);
}

void flash_backward_partial(const Tensor& q, const IndexMap& qmap,
                            const Tensor& k, const Tensor& v,
                            const IndexMap& kmap, const MaskSpec& mask,
                            float scale, const Tensor& d_out,
                            const Tensor& lse, const Tensor& dvec,
                            Tensor& dq_acc, Tensor& dk_acc, Tensor& dv_acc,
                            KernelStats* stats) {
  const std::int64_t nq = q.rows();
  const std::int64_t nk = k.rows();
  const std::int64_t d = q.cols();
  assert(k.cols() == d && v.cols() == d && v.rows() == nk);
  assert(d_out.rows() == nq && d_out.cols() == d);
  assert(lse.numel() == nq && dvec.numel() == nq);
  assert(dq_acc.rows() == nq && dk_acc.rows() == nk && dv_acc.rows() == nk);

  Workspace& ws = Workspace::tls();
  for (std::int64_t q0 = 0; q0 < nq; q0 += kTileQ) {
    const std::int64_t q1 = std::min(nq, q0 + kTileQ);
    const std::int64_t bq = q1 - q0;

    Workspace::Scope scope(ws);
    float* p = ws.alloc_f32(static_cast<std::size_t>(bq * kTileK));
    float* ds = ws.alloc_f32(static_cast<std::size_t>(bq * kTileK));
    std::int64_t* qg = ws.alloc_i64(static_cast<std::size_t>(bq));
    std::int64_t* kg = ws.alloc_i64(static_cast<std::size_t>(kTileK));
    for (std::int64_t i = 0; i < bq; ++i) {
      qg[i] = qmap.global(q0 + i);
    }

    for (std::int64_t k0 = 0; k0 < nk; k0 += kTileK) {
      const std::int64_t k1 = std::min(nk, k0 + kTileK);
      const std::int64_t bk = k1 - k0;
      const auto cls = classify_tile(mask, qmap, q0, q1, kmap, k0, k1);
      if (cls == MaskSpec::TileClass::kNone) {
        note_tile_skipped(stats);
        continue;
      }

      // P = exp(S - lse): masked entries are set to -inf first and come out
      // of the shared exp as exactly 0. Rows with lse == -inf are fully
      // masked globally.
      MatView pview{p, bq, bk, bk};
      tensor::gemm(q.row_block(q0, bq), Trans::No, k.row_block(k0, bk),
                   Trans::Yes, pview, scale, 0.0f);
      if (cls == MaskSpec::TileClass::kPartial) {
        mask_partial_tile(mask, qg, bq, kmap, k0, bk, kg, p);
      }
      for (std::int64_t i = 0; i < bq; ++i) {
        float* prow = p + i * bk;
        const float li = lse[q0 + i];
        if (li == kNegInf) {
          std::fill(prow, prow + bk, 0.0f);
        } else {
          tensor::exp_sub_sum(prow, prow, bk, li);
        }
      }

      // dV[k0:k1] += P^T dO.
      tensor::gemm(pview, Trans::Yes, d_out.row_block(q0, bq), Trans::No,
                   dv_acc.row_block(k0, bk), 1.0f, 1.0f);

      // dP = dO V^T; dS = P ∘ (dP - D).
      MatView dsview{ds, bq, bk, bk};
      tensor::gemm(d_out.row_block(q0, bq), Trans::No, v.row_block(k0, bk),
                   Trans::Yes, dsview, 1.0f, 0.0f);
      for (std::int64_t i = 0; i < bq; ++i) {
        const float di = dvec[q0 + i];
        const float* prow = p + i * bk;
        float* dsrow = ds + i * bk;
        for (std::int64_t j = 0; j < bk; ++j) {
          dsrow[j] = prow[j] * (dsrow[j] - di);
        }
      }

      // dK[k0:k1] += dS^T Q * scale; dQ[q0:q1] += dS K * scale.
      tensor::gemm(dsview, Trans::Yes, q.row_block(q0, bq), Trans::No,
                   dk_acc.row_block(k0, bk), scale, 1.0f);
      tensor::gemm(dsview, Trans::No, k.row_block(k0, bk), Trans::No,
                   dq_acc.row_block(q0, bq), scale, 1.0f);

      // Backward does ~2.5x the forward tile work (5 GEMMs vs 2).
      note_tile_computed(
          stats, attention_pair_flops(static_cast<std::uint64_t>(bq) *
                                          static_cast<std::uint64_t>(bk),
                                      d) *
                     5 / 2);
    }
  }
  note_workspace_high_water(ws);
}

void attach_attention_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    g_metrics = AttnMetrics{};
    return;
  }
  g_metrics.tiles_computed = &registry->counter("kernels.attn.tiles_computed");
  g_metrics.tiles_skipped = &registry->counter("kernels.attn.tiles_skipped");
  g_metrics.ws_high_water =
      &registry->gauge("kernels.workspace.high_water_bytes");
}

}  // namespace burst::kernels
