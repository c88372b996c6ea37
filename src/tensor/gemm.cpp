#include "tensor/gemm.hpp"
// burst-lint: hotpath

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/pack.hpp"
#include "tensor/workspace.hpp"

namespace burst::tensor {

namespace {

using pack::kKC;
using pack::kMR;
using pack::kNR;

// Cache-blocking sizes: an A block (kMC x kKC floats = 64KB) stays L2
// resident per task; a B panel (kKC x kNC = 512KB) is packed once per
// (jc, pc) step and shared read-only by every row task.
constexpr std::int64_t kMC = 64;
constexpr std::int64_t kNC = 512;

// Observation-only metric handles (see attach_gemm_metrics): null unless a
// registry is attached, so the detached hot path pays one pointer test.
struct GemmMetrics {
  obs::Counter* calls = nullptr;
  obs::Counter* a_panels = nullptr;
  obs::Counter* b_panels = nullptr;
  obs::Gauge* ws_high_water = nullptr;
};
GemmMetrics g_metrics;

// ---- microkernel ------------------------------------------------------------
// One register tile: kRows (1..kMR) rows x kNR columns of C, one kNR-float
// accumulator vector per row, so a full kMR-row tile keeps kMR vectors
// live. The k-loop broadcasts one A value per row against one kNR row of
// B: a pure FMA stream with no branches. Each accumulator starts at zero
// and is added once into C, so a C element is its k-ordered sum over the
// block whatever the tile height or operand layout; short last A panels
// run the kernel of their own height rather than padding.
//
// The body is shared by every operand source. A values come from pack_a
// panels (the GEMM driver, with alpha folded in) or are read in place from
// a strided view (small attention tiles, where a pack would cost as much
// as the product). B rows come from a source that hands out up to kBlock
// k-steps at a time: f32/bf16 panels are plain floats read in place (bf16
// is rounded at pack time), while q8_0/q4_0 panels dequantize each
// kQuantBlock-row block into an L1-resident staging tile with
// `bc = scale[c] * (float)q` — exactly the dequantize_q*_0 expression — so
// a quantized GEMM is bitwise-equal to the fp32 GEMM over the
// pre-dequantized panel. Splitting convert from FMA keeps both loops
// trivially vectorizable; per micro-panel the kernel streams 16 (q8) or 8
// (q4) B bytes per k-step from memory instead of 64 — the bandwidth win
// that pays for the convert.

using Vec = float __attribute__((vector_size(kNR * sizeof(float))));

// Pins a B row in a register. For tiles of one to three rows GCC otherwise
// folds the load into every row's FMA and re-reads the streamed B line
// once per row: a 3-row GEMM ran 1.5x slower than a 4-row one. The empty
// asm emits nothing; it needs the whole vector in one register (AVX-512).
inline void keep_in_register(Vec& v) {
#if defined(__AVX512F__)
  asm("" : "+v"(v));
#else
  (void)v;
#endif
}

// A sources: the tile whose first row is `ir` reads element (r, kk) at
// tile(ir)[r * row_step<kRows>() + kk * k_step<kRows>()].
struct PackedA {  // pack_a panels: k-major, kRows floats per k-step
  const float* data;
  std::int64_t kc;
  const float* tile(std::int64_t ir) const { return data + ir * kc; }
  template <int kRows>
  std::int64_t row_step() const {
    return 1;
  }
  template <int kRows>
  std::int64_t k_step() const {
    return kRows;
  }
};

struct ViewA {  // op(A) read in place
  const float* data;
  std::int64_t rs;  // float step between rows of op(A)
  std::int64_t ks;  // float step between k-steps of op(A)
  const float* tile(std::int64_t ir) const { return data + ir * rs; }
  template <int kRows>
  std::int64_t row_step() const {
    return rs;
  }
  template <int kRows>
  std::int64_t k_step() const {
    return ks;
  }
};

struct F32Rows {
  static constexpr std::int64_t kBlock = kKC;
  static constexpr std::int64_t kStage = 1;  // rows are read in place
  static const float* rows(const std::uint8_t* bp, std::int64_t kk0,
                           std::int64_t /*rows*/, float* /*stage*/) {
    // Offsets within an f32 panel stream are multiples of 4 bytes.
    return reinterpret_cast<const float*>(bp) + kk0 * kNR;
  }
};

struct Q8Rows {
  static constexpr std::int64_t kBlock = kQuantBlock;
  static constexpr std::int64_t kStage = kQuantBlock * kNR;
  static const float* rows(const std::uint8_t* bp, std::int64_t kk0,
                           std::int64_t rows, float* stage) {
    const std::uint8_t* chunk =
        bp + (kk0 / kQuantBlock) * pack::b_chunk_bytes(DType::kQ8_0);
    float scales[kNR];
    std::memcpy(scales, chunk, sizeof(scales));
    const auto* qs = reinterpret_cast<const std::int8_t*>(chunk + kNR * 4);
    for (std::int64_t kk = 0; kk < rows; ++kk) {
      const std::int8_t* q = qs + kk * kNR;
      float* b = stage + kk * kNR;
      for (std::int64_t c = 0; c < kNR; ++c) {
        b[c] = scales[c] * static_cast<float>(q[c]);
      }
    }
    return stage;
  }
};

struct Q4Rows {
  static constexpr std::int64_t kBlock = kQuantBlock;
  static constexpr std::int64_t kStage = kQuantBlock * kNR;
  static const float* rows(const std::uint8_t* bp, std::int64_t kk0,
                           std::int64_t rows, float* stage) {
    const std::uint8_t* chunk =
        bp + (kk0 / kQuantBlock) * pack::b_chunk_bytes(DType::kQ4_0);
    float scales[kNR];
    std::memcpy(scales, chunk, sizeof(scales));
    const std::uint8_t* codes = chunk + kNR * 4;
    // Each payload byte packs two consecutive k-rows (low nibble = even
    // row); a short block's odd last row uses only the low nibble.
    const std::int64_t pairs = rows / 2;
    for (std::int64_t j = 0; j < pairs; ++j) {
      const std::uint8_t* qb = codes + j * kNR;
      float* blo = stage + 2 * j * kNR;
      float* bhi = blo + kNR;
      for (std::int64_t c = 0; c < kNR; ++c) {
        const int byte = qb[c];
        blo[c] = scales[c] * static_cast<float>((byte & 0x0F) - 8);
        bhi[c] = scales[c] * static_cast<float>((byte >> 4) - 8);
      }
    }
    if ((rows & 1) != 0) {
      const std::uint8_t* qb = codes + pairs * kNR;
      float* b = stage + 2 * pairs * kNR;
      for (std::int64_t c = 0; c < kNR; ++c) {
        b[c] = scales[c] * static_cast<float>((qb[c] & 0x0F) - 8);
      }
    }
    return stage;
  }
};

// C[0:kRows, 0:nr] += A[ir : ir + kRows] @ Bp over kc k-steps (ldc = C
// row pitch).
template <int kRows, typename ASrc, typename Src>
void micro_tile(const ASrc& asrc, std::int64_t ir, const std::uint8_t* bp,
                std::int64_t kc, float* c, std::int64_t ldc, std::int64_t nr) {
  const float* __restrict__ ap = asrc.tile(ir);
  const std::int64_t rs = asrc.template row_step<kRows>();
  const std::int64_t ks = asrc.template k_step<kRows>();
  Vec acc[kRows];
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
    acc[r] = Vec{};
  }
  alignas(64) float stage[Src::kStage];
  for (std::int64_t kk0 = 0; kk0 < kc; kk0 += Src::kBlock) {
    const std::int64_t rows = std::min(Src::kBlock, kc - kk0);
    const float* __restrict__ b = Src::rows(bp, kk0, rows, stage);
    for (std::int64_t kk = 0; kk < rows; ++kk) {
      Vec bv;
      std::memcpy(&bv, b + kk * kNR, sizeof(bv));
      keep_in_register(bv);
      const float* __restrict__ a = ap + (kk0 + kk) * ks;
#pragma GCC unroll 16
      for (int r = 0; r < kRows; ++r) {
        acc[r] += a[r * rs] * bv;
      }
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
    float* crow = c + r * ldc;
    if (nr == kNR) {
      Vec cv;
      std::memcpy(&cv, crow, sizeof(cv));
      cv += acc[r];
      std::memcpy(crow, &cv, sizeof(cv));
    } else {
      float t[kNR];
      std::memcpy(t, &acc[r], sizeof(t));
      for (std::int64_t cc = 0; cc < nr; ++cc) {
        crow[cc] += t[cc];
      }
    }
  }
}

template <typename ASrc>
using TileFn = void (*)(const ASrc&, std::int64_t, const std::uint8_t*,
                        std::int64_t, float*, std::int64_t, std::int64_t);

// micro_tile<1..kMR, ASrc, Src>, indexed by row count - 1.
template <typename ASrc, typename Src, std::size_t... kR>
constexpr std::array<TileFn<ASrc>, kMR> tiles_for(std::index_sequence<kR...>) {
  return {&micro_tile<static_cast<int>(kR) + 1, ASrc, Src>...};
}
template <typename ASrc, typename Src>
constexpr std::array<TileFn<ASrc>, kMR> kTiles =
    tiles_for<ASrc, Src>(std::make_index_sequence<kMR>{});

// The one block routine: C += A @ Bp over kc k-steps, tile by tile.
template <typename ASrc, typename Src>
void run_block(const ASrc& a, const std::uint8_t* bp, std::int64_t b_stride,
               std::int64_t kc, MatView c) {
  for (std::int64_t jr = 0; jr < c.cols; jr += kNR) {
    const std::int64_t nr = std::min(kNR, c.cols - jr);
    const std::uint8_t* b = bp + (jr / kNR) * b_stride;
    for (std::int64_t ir = 0; ir < c.rows; ir += kMR) {
      const std::int64_t mr = std::min(kMR, c.rows - ir);
      kTiles<ASrc, Src>[static_cast<std::size_t>(mr - 1)](
          a, ir, b, kc, c.data + ir * c.stride + jr, c.stride, nr);
    }
  }
}

// Smallest work one task of a column split carries: below it, a task's
// share of the dispatch costs more than the split saves.
constexpr std::int64_t kMinTaskFlops = std::int64_t{1} << 18;

// A packed B stream: the micro-panel of kNR columns starting at column jc
// (a multiple of kNR) and k-step pc (a multiple of kKC) is at `data`, and
// the next panel `stride` bytes on.
struct BPanels {
  const std::uint8_t* data;
  std::int64_t stride;
};

// The blocked driver behind every GEMM entry point: beta pre-scale, then
// one parallel_for over a grid of row groups (whole kMC row blocks) x
// ranges of kNR column panels. Each task walks its columns cache block by
// cache block (a range may cross a kNC boundary) and, within each, the pc
// blocks in ascending order; per (jc, pc) block it takes the packed B
// stream `panels_at(ws, jc, nc, pc, kc)` at dtype `dt` (packed into the
// task's own workspace by gemm, borrowed from a PackedB by gemm_packed) and
// runs gemm_block over it for each of its row blocks, packing the A block
// per pc block. There are at most as many row groups as ways, so gemm packs
// each B block once per group, and no thread holds more than one A and one
// B block.
//
// Column ranges are split only when the row blocks alone leave ways of the
// pool idle (small m, e.g. batched decode) and each task still carries at
// least kMinTaskFlops over the whole depth. Every C element is written by
// exactly one task, which adds its kc-block sums in pc order with the same
// kernel over the same packed panels, so results are bitwise identical for
// any grid and any pool size, and gemm_packed over a kF32 PackedB (the
// panels gemm() packs per call) reproduces gemm() bit for bit.
template <typename PanelsFn>
void gemm_blocked(ConstMatView a, Trans ta, std::int64_t m, std::int64_t k,
                  std::int64_t n, DType dt, MatView c, float alpha,
                  float beta, PanelsFn&& panels_at) {
  assert(c.rows == m && c.cols == n);
  // Scale / clear C first so the K-blocked accumulation below can always add.
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c.data + i * c.stride;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] *= beta;
      }
    }
  }

  if (g_metrics.calls != nullptr) {
    g_metrics.calls->add(1);
  }
  if (m == 0 || n == 0 || k == 0) {
    return;
  }

  const std::int64_t mblocks = (m + kMC - 1) / kMC;
  const std::int64_t panels = (n + kNR - 1) / kNR;
  const auto ways = static_cast<std::int64_t>(parallel::concurrency());
  const std::int64_t group_blocks =
      (mblocks + std::min(ways, mblocks) - 1) / std::min(ways, mblocks);
  const std::int64_t groups = (mblocks + group_blocks - 1) / group_blocks;
  std::int64_t range_panels = panels;
  if (ways > mblocks) {
    const std::int64_t panel_flops = 2 * std::min(m, kMC) * k * kNR;
    const std::int64_t min_panels =
        (kMinTaskFlops + panel_flops - 1) / panel_flops;
    const std::int64_t want = std::clamp<std::int64_t>(
        panels / min_panels, 1, (ways + mblocks - 1) / mblocks);
    range_panels = (panels + want - 1) / want;
  }
  const std::int64_t ranges = (panels + range_panels - 1) / range_panels;

  parallel::parallel_for(
      0, static_cast<std::size_t>(groups * ranges), 1,
      [&](std::size_t t0, std::size_t t1) {
        Workspace& wst = Workspace::tls();
        // The A buffer comes first and is reused for every A block, so a
        // thread's arena holds one A block and one B block and nothing more.
        Workspace::Scope ascope(wst);
        float* apack = wst.alloc_f32(static_cast<std::size_t>(
            pack::a_panel_floats(std::min(m, kMC), std::min(k, kKC))));
        for (std::size_t t = t0; t < t1; ++t) {
          const auto task = static_cast<std::int64_t>(t);
          const std::int64_t i0 = task / ranges * group_blocks * kMC;
          const std::int64_t i1 = std::min(m, i0 + group_blocks * kMC);
          const std::int64_t j0 = task % ranges * range_panels * kNR;
          const std::int64_t j1 = std::min(n, j0 + range_panels * kNR);
          for (std::int64_t jc = j0; jc < j1;) {
            const std::int64_t jend = std::min(j1, (jc / kNC + 1) * kNC);
            for (std::int64_t pc = 0; pc < k; pc += kKC) {
              const std::int64_t kc = std::min(kKC, k - pc);
              Workspace::Scope bscope(wst);
              const BPanels b = panels_at(wst, jc, jend - jc, pc, kc);
              for (std::int64_t ic = i0; ic < i1; ic += kMC) {
                const std::int64_t mc = std::min(kMC, m - ic);
                const std::int64_t apanels =
                    pack::pack_a(a, ta, ic, mc, pc, kc, alpha, apack);
                if (g_metrics.a_panels != nullptr) {
                  g_metrics.a_panels->add(
                      static_cast<std::uint64_t>(apanels));
                }
                pack::gemm_block(
                    apack, b.data, b.stride, dt, kc,
                    MatView{c.data + ic * c.stride + jc, mc, jend - jc,
                            c.stride});
              }
            }
            jc = jend;
          }
        }
      });

  if (g_metrics.ws_high_water != nullptr) {
    g_metrics.ws_high_water->set_max(
        static_cast<double>(Workspace::tls().high_water_bytes()));
  }
}

}  // namespace

void pack::gemm_block(const float* ap, const std::uint8_t* bp,
                      std::int64_t b_stride, DType dt, std::int64_t kc,
                      MatView c) {
  const PackedA a{ap, kc};
  switch (dt) {
    case DType::kQ8_0:
      run_block<PackedA, Q8Rows>(a, bp, b_stride, kc, c);
      return;
    case DType::kQ4_0:
      run_block<PackedA, Q4Rows>(a, bp, b_stride, kc, c);
      return;
    case DType::kF32:
    case DType::kBf16:
      run_block<PackedA, F32Rows>(a, bp, b_stride, kc, c);
      return;
  }
}

void pack::gemm_block(ConstMatView a, Trans ta, const float* bp,
                      std::int64_t b_stride, MatView c) {
  const bool no = ta == Trans::No;
  assert(c.rows == (no ? a.rows : a.cols));
  run_block<ViewA, F32Rows>(
      ViewA{a.data, no ? a.stride : 1, no ? 1 : a.stride},
      reinterpret_cast<const std::uint8_t*>(bp), b_stride * 4,
      no ? a.cols : a.rows, c);
}

void gemm(ConstMatView a, Trans ta, ConstMatView b, Trans tb, MatView c,
          float alpha, float beta) {
  const std::int64_t m = (ta == Trans::No) ? a.rows : a.cols;
  const std::int64_t k = (ta == Trans::No) ? a.cols : a.rows;
  const std::int64_t kb = (tb == Trans::No) ? b.rows : b.cols;
  const std::int64_t n = (tb == Trans::No) ? b.cols : b.rows;
  assert(k == kb);
  (void)kb;
  gemm_blocked(a, ta, m, k, n, DType::kF32, c, alpha, beta,
               [&](Workspace& ws, std::int64_t jc, std::int64_t nc,
                   std::int64_t pc, std::int64_t kc) {
                 float* bpack = ws.alloc_f32(
                     static_cast<std::size_t>(pack::b_panel_floats(nc, kc)));
                 const std::int64_t bpanels =
                     pack::pack_b(b, tb, pc, kc, jc, nc, bpack);
                 if (g_metrics.b_panels != nullptr) {
                   g_metrics.b_panels->add(
                       static_cast<std::uint64_t>(bpanels));
                 }
                 return BPanels{reinterpret_cast<const std::uint8_t*>(bpack),
                                pack::b_panel_stride_bytes(DType::kF32, kc)};
               });
}

// The outputs below start uninitialized: gemm's beta = 0 pass clears them.
Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::uninitialized({a.rows(), b.cols()});
  gemm(a.view(), Trans::No, b.view(), Trans::No, c.view());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::uninitialized({a.rows(), b.rows()});
  gemm(a.view(), Trans::No, b.view(), Trans::Yes, c.view());
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::uninitialized({a.cols(), b.cols()});
  gemm(a.view(), Trans::Yes, b.view(), Trans::No, c.view());
  return c;
}

// burst-lint: allow-begin(no-hotpath-alloc) pack() is one-time weight setup,
// not the steady-state GEMM path; the owned storage is the whole point.
PackedB PackedB::pack(ConstMatView b, Trans tb, DType dt) {
  PackedB out;
  out.dtype_ = dt;
  out.k_ = (tb == Trans::No) ? b.rows : b.cols;
  out.n_ = (tb == Trans::No) ? b.cols : b.rows;
  out.pc_blocks_ = (out.k_ + kKC - 1) / kKC;
  const std::int64_t jc_blocks = (out.n_ + kNC - 1) / kNC;
  out.offsets_.resize(
      static_cast<std::size_t>(jc_blocks * out.pc_blocks_));

  std::uint64_t total = 0;
  for (std::int64_t jcb = 0; jcb < jc_blocks; ++jcb) {
    const std::int64_t nc = std::min(kNC, out.n_ - jcb * kNC);
    for (std::int64_t pcb = 0; pcb < out.pc_blocks_; ++pcb) {
      const std::int64_t kc = std::min(kKC, out.k_ - pcb * kKC);
      out.offsets_[static_cast<std::size_t>(jcb * out.pc_blocks_ + pcb)] =
          total;
      total += static_cast<std::uint64_t>(pack::b_panel_bytes(dt, nc, kc));
    }
  }
  out.storage_.resize(static_cast<std::size_t>(total));

  std::vector<float> scratch(
      static_cast<std::size_t>(pack::b_panel_floats(kNC, kKC)));
  std::int64_t bpanels = 0;
  for (std::int64_t jcb = 0; jcb < jc_blocks; ++jcb) {
    const std::int64_t jc = jcb * kNC;
    const std::int64_t nc = std::min(kNC, out.n_ - jc);
    for (std::int64_t pcb = 0; pcb < out.pc_blocks_; ++pcb) {
      const std::int64_t pc = pcb * kKC;
      const std::int64_t kc = std::min(kKC, out.k_ - pc);
      std::uint8_t* dst =
          out.storage_.data() +
          out.offsets_[static_cast<std::size_t>(jcb * out.pc_blocks_ + pcb)];
      bpanels +=
          pack::pack_b_dt(b, tb, pc, kc, jc, nc, dt, scratch.data(), dst);
    }
  }
  if (g_metrics.b_panels != nullptr) {
    g_metrics.b_panels->add(static_cast<std::uint64_t>(bpanels));
  }

  // Quantized packs resident bytes == the real serving artifact (scales +
  // payload, block/panel padding included); dense dtypes charge the plain
  // K*N matrix at their element width.
  out.model_bytes_ = dtype_is_quantized(dt)
                         ? total
                         : dtype_mat_bytes(dt, out.k_, out.n_);
  return out;
}
// burst-lint: allow-end(no-hotpath-alloc)

void gemm_packed(ConstMatView a, Trans ta, const PackedB& b, MatView c,
                 float alpha, float beta) {
  const std::int64_t m = (ta == Trans::No) ? a.rows : a.cols;
  const std::int64_t ka = (ta == Trans::No) ? a.cols : a.rows;
  assert(ka == b.k());
  (void)ka;
  gemm_blocked(a, ta, m, b.k(), b.n(), b.dtype(), c, alpha, beta,
               [&](Workspace& /*ws*/, std::int64_t jc, std::int64_t /*nc*/,
                   std::int64_t pc, std::int64_t kc) {
                 const std::int64_t stride =
                     pack::b_panel_stride_bytes(b.dtype(), kc);
                 return BPanels{b.cache_block(jc / kNC, pc / kKC) +
                                    (jc % kNC / kNR) * stride,
                                stride};
               });
}

Tensor packed_matmul(const Tensor& a, const PackedB& b) {
  Tensor c = Tensor::uninitialized({a.rows(), b.n()});
  gemm_packed(a.view(), Trans::No, b, c.view());
  return c;
}

void attach_gemm_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    g_metrics = GemmMetrics{};
    return;
  }
  g_metrics.calls = &registry->counter("tensor.gemm.calls");
  g_metrics.a_panels = &registry->counter("tensor.gemm.a_panels_packed");
  g_metrics.b_panels = &registry->counter("tensor.gemm.b_panels_packed");
  g_metrics.ws_high_water =
      &registry->gauge("tensor.workspace.high_water_bytes");
}

}  // namespace burst::tensor
