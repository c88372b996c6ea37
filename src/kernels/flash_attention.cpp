#include "kernels/flash_attention.hpp"
// burst-lint: hotpath

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
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
// Tile sizes chosen so toy-scale tests exercise full tiles, remainders, and
// the skip logic.
constexpr std::int64_t kTileQ = 32;
constexpr std::int64_t kTileK = 32;
// Keys per packed K/V block. A partition longer than this is packed one
// block at a time, so the packed panels take at most a few kKeyBlock x d
// floats of Workspace whatever the context length. A multiple of kTileK,
// so no tile straddles two blocks.
constexpr std::int64_t kKeyBlock = 512;
static_assert(kKeyBlock % kTileK == 0 && kTileK % tensor::pack::kNR == 0);

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

// ---- prepacked tile products ----------------------------------------------
// The tiles run tensor::pack::gemm_block over operands packed once where
// they stop changing: K/V per key block, Q and dO per query tile. The
// per-tile operands P and dS are read in place. Each product keeps the
// per-element arithmetic tensor::gemm() would use (its alpha placement,
// its beta = 0 clearing, its kKC depth slices for products as deep as the
// head dim d), so results are bitwise gemm()'s.

using tensor::pack::a_panel_floats;
using tensor::pack::b_panel_floats;
using tensor::pack::gemm_block;
using tensor::pack::kKC;
using tensor::pack::kNR;

// A panels of alpha * x[r0:r0+n, :], d-deep, one kKC slice after another.
float* pack_rows_a(Workspace& ws, ConstMatView x, std::int64_t r0,
                   std::int64_t n, float alpha) {
  const std::int64_t d = x.cols;
  float* out = ws.alloc_f32(static_cast<std::size_t>(a_panel_floats(n, d)));
  for (std::int64_t pc = 0; pc < d; pc += kKC) {
    tensor::pack::pack_a(x, Trans::No, r0, n, pc, std::min(kKC, d - pc),
                         alpha, out + a_panel_floats(n, pc));
  }
  return out;
}

// C += A B^T over the head dim: A from pack_rows_a over c.rows rows, B the
// columns [j0, j0 + c.cols) of a pack_b_blocks of x^T over `width` rows.
void gemm_depth_d(const float* ap, const float* bp, std::int64_t width,
                  std::int64_t j0, std::int64_t d, MatView c) {
  for (std::int64_t pc = 0; pc < d; pc += kKC) {
    const std::int64_t kc = std::min(kKC, d - pc);
    gemm_block(ap + a_panel_floats(c.rows, pc),
               bp + b_panel_floats(width, pc) + j0 / kNR * kc * kNR,
               kc * kNR, kc, c);
  }
}

// Panels of one block of at most kKeyBlock keys, packed when a computed
// tile first needs them: Kᵀ (d-deep, one column per key) for S = Q Kᵀ, and
// V (key-deep, d columns) for the forward's P V, or Vᵀ for the backward's
// dP = dO Vᵀ and K (key-deep) for its dS K.
class KeyBlockPanels {
 public:
  enum class Pass { kForward, kBackward };

  KeyBlockPanels(Workspace& ws, ConstMatView k, ConstMatView v, Pass pass)
      : k_(k), v_(v) {
    const std::int64_t keys = std::min(k.rows, kKeyBlock);
    const std::int64_t d = k.cols;
    const auto deep_d = static_cast<std::size_t>(b_panel_floats(keys, d));
    const auto deep_keys = static_cast<std::size_t>(b_panel_floats(d, keys));
    kt_ = ws.alloc_f32(deep_d);
    if (pass == Pass::kForward) {
      v_panels_ = ws.alloc_f32(deep_keys);
    } else {
      vt_ = ws.alloc_f32(deep_d);
      k_panels_ = ws.alloc_f32(deep_keys);
    }
  }

  // Makes the block holding key `k0` resident.
  void visit(std::int64_t k0) {
    const std::int64_t b0 = k0 / kKeyBlock * kKeyBlock;
    if (b0 == b0_) {
      return;
    }
    b0_ = b0;
    keys_ = std::min(kKeyBlock, k_.rows - b0);
    const std::int64_t d = k_.cols;
    tensor::pack::pack_b_blocks(k_, Trans::Yes, d, b0, keys_, kt_);
    if (v_panels_ != nullptr) {
      tensor::pack::pack_b(v_, Trans::No, b0, keys_, 0, d, v_panels_);
    } else {
      tensor::pack::pack_b_blocks(v_, Trans::Yes, d, b0, keys_, vt_);
      tensor::pack::pack_b(k_, Trans::No, b0, keys_, 0, d, k_panels_);
    }
  }

  // C += A Kᵀ or C += A Vᵀ over keys [k0, k0 + c.cols); A from
  // pack_rows_a.
  void times_kt(const float* ap, std::int64_t k0, MatView c) const {
    gemm_depth_d(ap, kt_, keys_, k0 - b0_, k_.cols, c);
  }
  void times_vt(const float* ap, std::int64_t k0, MatView c) const {
    gemm_depth_d(ap, vt_, keys_, k0 - b0_, k_.cols, c);
  }
  // C += op(A) X[k0 : k0 + depth] for X = V or K, op(A) read in place.
  void times_v(ConstMatView a, Trans ta, std::int64_t k0, MatView c) const {
    gemm_block(a, ta, v_panels_ + (k0 - b0_) * kNR, keys_ * kNR, c);
  }
  void times_k(ConstMatView a, Trans ta, std::int64_t k0, MatView c) const {
    gemm_block(a, ta, k_panels_ + (k0 - b0_) * kNR, keys_ * kNR, c);
  }

 private:
  ConstMatView k_, v_;
  float* kt_ = nullptr;
  float* v_panels_ = nullptr;
  float* vt_ = nullptr;
  float* k_panels_ = nullptr;
  std::int64_t b0_ = -1;
  std::int64_t keys_ = 0;
};

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

  // All scratch is borrowed from the thread-local arena: zero heap
  // allocations in steady state (asserted by test_workspace.cpp).
  Workspace& ws = Workspace::tls();
  Workspace::Scope call_scope(ws);
  KeyBlockPanels kv(ws, k, v, KeyBlockPanels::Pass::kForward);
  for (std::int64_t q0 = 0; q0 < nq; q0 += kTileQ) {
    const std::int64_t q1 = std::min(nq, q0 + kTileQ);
    const std::int64_t bq = q1 - q0;

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
    const float* q_panels = nullptr;  // scale * Q tile, packed on first use

    for (std::int64_t k0 = 0; k0 < nk; k0 += kTileK) {
      const std::int64_t k1 = std::min(nk, k0 + kTileK);
      const std::int64_t bk = k1 - k0;
      const auto cls = classify_tile(mask, qmap, q0, q1, kmap, k0, k1);
      if (cls == MaskSpec::TileClass::kNone) {
        note_tile_skipped(stats);
        continue;
      }
      if (q_panels == nullptr) {
        q_panels = pack_rows_a(ws, q, q0, bq, scale);
      }
      kv.visit(k0);

      // S = scale Q Kᵀ, cleared first as gemm()'s beta = 0 does.
      const MatView sview{s, bq, bk, bk};
      std::fill(s, s + bq * bk, 0.0f);
      kv.times_kt(q_panels, k0, sview);
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
      kv.times_v(sview, Trans::No, k0, oview);

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
  Workspace::Scope call_scope(ws);
  KeyBlockPanels kv(ws, k.view(), v.view(), KeyBlockPanels::Pass::kBackward);
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
    // The query tile's operands, packed on first use: scale Q and dO as
    // d-deep A panels (for S and dP), dO and Q as bq-deep B panels (for
    // dV += Pᵀ dO and dK += dSᵀ Q).
    const float* q_panels = nullptr;
    const float* dout_panels = nullptr;
    float* dout_rows = nullptr;
    float* q_rows = nullptr;
    const MatView dq_tile = dq_acc.row_block(q0, bq);

    for (std::int64_t k0 = 0; k0 < nk; k0 += kTileK) {
      const std::int64_t k1 = std::min(nk, k0 + kTileK);
      const std::int64_t bk = k1 - k0;
      const auto cls = classify_tile(mask, qmap, q0, q1, kmap, k0, k1);
      if (cls == MaskSpec::TileClass::kNone) {
        note_tile_skipped(stats);
        continue;
      }
      if (q_panels == nullptr) {
        q_panels = pack_rows_a(ws, q.view(), q0, bq, scale);
        dout_panels = pack_rows_a(ws, d_out.view(), q0, bq, 1.0f);
        const auto rows_floats =
            static_cast<std::size_t>(b_panel_floats(d, bq));
        dout_rows = ws.alloc_f32(rows_floats);
        q_rows = ws.alloc_f32(rows_floats);
        tensor::pack::pack_b(d_out.view(), Trans::No, q0, bq, 0, d, dout_rows);
        tensor::pack::pack_b(q.view(), Trans::No, q0, bq, 0, d, q_rows);
      }
      kv.visit(k0);

      // P = exp(S - lse): masked entries are set to -inf first and come out
      // of the shared exp as exactly 0. Rows with lse == -inf are fully
      // masked globally.
      const MatView pview{p, bq, bk, bk};
      std::fill(p, p + bq * bk, 0.0f);
      kv.times_kt(q_panels, k0, pview);
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

      // dV[k0:k1] += Pᵀ dO.
      gemm_block(pview, Trans::Yes, dout_rows, bq * kNR,
                 dv_acc.row_block(k0, bk));

      // dP = dO Vᵀ; dS = P ∘ (dP - D), stored times `scale`: the value a
      // pack with alpha = scale would hold, rounded the same way.
      const MatView dsview{ds, bq, bk, bk};
      std::fill(ds, ds + bq * bk, 0.0f);
      kv.times_vt(dout_panels, k0, dsview);
      for (std::int64_t i = 0; i < bq; ++i) {
        const float di = dvec[q0 + i];
        const float* prow = p + i * bk;
        float* dsrow = ds + i * bk;
        for (std::int64_t j = 0; j < bk; ++j) {
          const float dsij = prow[j] * (dsrow[j] - di);
          dsrow[j] = scale * dsij;
        }
      }

      // dK[k0:k1] += dSᵀ Q * scale; dQ[q0:q1] += dS K * scale.
      gemm_block(dsview, Trans::Yes, q_rows, bq * kNR,
                 dk_acc.row_block(k0, bk));
      kv.times_k(dsview, Trans::No, k0, dq_tile);

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
