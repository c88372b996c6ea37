#include "tensor/gemm.hpp"
// burst-lint: hotpath

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/pack.hpp"
#include "tensor/workspace.hpp"

namespace burst::tensor {

namespace {

using pack::kMR;
using pack::kNR;

// Cache-blocking sizes: an A block (kMC x kKC floats = 64KB) stays L2
// resident per task; a B panel (kKC x kNC = 512KB) is packed once per
// (jc, pc) step and shared read-only by every row task.
constexpr std::int64_t kMC = 64;
constexpr std::int64_t kKC = 256;
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

// 4x16 microkernel over packed panels: acc += Ap @ Bp. The accumulator rows
// live in registers (explicit arrays so the compiler keeps one SIMD vector
// chain per row instead of spilling a 2-D array); the k-loop is a pure FMA
// stream with unit-stride loads and no branches.
inline void micro_kernel(const float* __restrict__ ap,
                         const float* __restrict__ bp, std::int64_t kc,
                         float* __restrict__ acc) {
  float a0[kNR] = {0.0f};
  float a1[kNR] = {0.0f};
  float a2[kNR] = {0.0f};
  float a3[kNR] = {0.0f};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* a = ap + kk * kMR;
    const float* b = bp + kk * kNR;
    const float x0 = a[0];
    const float x1 = a[1];
    const float x2 = a[2];
    const float x3 = a[3];
    for (std::int64_t c = 0; c < kNR; ++c) {
      const float bc = b[c];
      a0[c] += x0 * bc;
      a1[c] += x1 * bc;
      a2[c] += x2 * bc;
      a3[c] += x3 * bc;
    }
  }
  for (std::int64_t c = 0; c < kNR; ++c) {
    acc[0 * kNR + c] = a0[c];
    acc[1 * kNR + c] = a1[c];
    acc[2 * kNR + c] = a2[c];
    acc[3 * kNR + c] = a3[c];
  }
}

// ---- dequantizing microkernel variants ------------------------------------
// Same 4x16 register tile as micro_kernel, but the B panel is the quantized
// block stream from pack::pack_b_dt. Each 32-row block is dequantized into
// an L1-resident staging tile with `bc = scale[c] * (float)q` — exactly the
// dequantize_q*_0 expression — and then fed through the same FMA loop as
// micro_kernel, so a quantized GEMM is bitwise-equal to running the fp32
// GEMM over the pre-dequantized panel (per-accumulator addition order is
// the k order either way). Splitting convert from FMA keeps both loops
// trivially vectorizable; per micro-panel the kernel streams 16 (q8) or
// 8 (q4) B bytes per k-step from memory instead of 64 — the bandwidth win
// that pays for the int->float convert.

using QKernel = void (*)(const float* __restrict__, const std::uint8_t*,
                         std::int64_t, float* __restrict__);

void micro_kernel_f32p(const float* __restrict__ ap, const std::uint8_t* bp,
                       std::int64_t kc, float* __restrict__ acc) {
  // f32/bf16 panels are plain packed floats (bf16 rounded at pack time);
  // offsets within the panel stream are multiples of 4 bytes by layout.
  micro_kernel(ap, reinterpret_cast<const float*>(bp), kc, acc);
}

void micro_kernel_q8(const float* __restrict__ ap, const std::uint8_t* bp,
                     std::int64_t kc, float* __restrict__ acc) {
  constexpr std::int64_t kChunk = kNR * 4 + kQuantBlock * kNR;
  float a0[kNR] = {0.0f};
  float a1[kNR] = {0.0f};
  float a2[kNR] = {0.0f};
  float a3[kNR] = {0.0f};
  float bf[kQuantBlock * kNR];
  for (std::int64_t kk0 = 0; kk0 < kc; kk0 += kQuantBlock) {
    const std::uint8_t* chunk = bp + (kk0 / kQuantBlock) * kChunk;
    float scales[kNR];
    std::memcpy(scales, chunk, sizeof(scales));
    const auto* qs = reinterpret_cast<const std::int8_t*>(chunk + kNR * 4);
    const std::int64_t rows = std::min(kQuantBlock, kc - kk0);
    for (std::int64_t kk = 0; kk < rows; ++kk) {
      const std::int8_t* q = qs + kk * kNR;
      float* b = bf + kk * kNR;
      for (std::int64_t c = 0; c < kNR; ++c) {
        b[c] = scales[c] * static_cast<float>(q[c]);
      }
    }
    for (std::int64_t kk = 0; kk < rows; ++kk) {
      const float* a = ap + (kk0 + kk) * kMR;
      const float* b = bf + kk * kNR;
      const float x0 = a[0];
      const float x1 = a[1];
      const float x2 = a[2];
      const float x3 = a[3];
      for (std::int64_t c = 0; c < kNR; ++c) {
        const float bc = b[c];
        a0[c] += x0 * bc;
        a1[c] += x1 * bc;
        a2[c] += x2 * bc;
        a3[c] += x3 * bc;
      }
    }
  }
  for (std::int64_t c = 0; c < kNR; ++c) {
    acc[0 * kNR + c] = a0[c];
    acc[1 * kNR + c] = a1[c];
    acc[2 * kNR + c] = a2[c];
    acc[3 * kNR + c] = a3[c];
  }
}

void micro_kernel_q4(const float* __restrict__ ap, const std::uint8_t* bp,
                     std::int64_t kc, float* __restrict__ acc) {
  constexpr std::int64_t kChunk = kNR * 4 + kQuantBlock / 2 * kNR;
  float a0[kNR] = {0.0f};
  float a1[kNR] = {0.0f};
  float a2[kNR] = {0.0f};
  float a3[kNR] = {0.0f};
  float bf[kQuantBlock * kNR];
  for (std::int64_t kk0 = 0; kk0 < kc; kk0 += kQuantBlock) {
    const std::uint8_t* chunk = bp + (kk0 / kQuantBlock) * kChunk;
    float scales[kNR];
    std::memcpy(scales, chunk, sizeof(scales));
    const std::uint8_t* codes = chunk + kNR * 4;
    const std::int64_t rows = std::min(kQuantBlock, kc - kk0);
    // Each payload byte packs two consecutive k-rows (low nibble = even
    // row); a short block's odd last row uses only the low nibble.
    const std::int64_t pairs = rows / 2;
    for (std::int64_t j = 0; j < pairs; ++j) {
      const std::uint8_t* qb = codes + j * kNR;
      float* blo = bf + 2 * j * kNR;
      float* bhi = blo + kNR;
      for (std::int64_t c = 0; c < kNR; ++c) {
        const int byte = qb[c];
        blo[c] = scales[c] * static_cast<float>((byte & 0x0F) - 8);
        bhi[c] = scales[c] * static_cast<float>((byte >> 4) - 8);
      }
    }
    if ((rows & 1) != 0) {
      const std::uint8_t* qb = codes + pairs * kNR;
      float* b = bf + 2 * pairs * kNR;
      for (std::int64_t c = 0; c < kNR; ++c) {
        b[c] = scales[c] * static_cast<float>((qb[c] & 0x0F) - 8);
      }
    }
    for (std::int64_t kk = 0; kk < rows; ++kk) {
      const float* a = ap + (kk0 + kk) * kMR;
      const float* b = bf + kk * kNR;
      const float x0 = a[0];
      const float x1 = a[1];
      const float x2 = a[2];
      const float x3 = a[3];
      for (std::int64_t c = 0; c < kNR; ++c) {
        const float bc = b[c];
        a0[c] += x0 * bc;
        a1[c] += x1 * bc;
        a2[c] += x2 * bc;
        a3[c] += x3 * bc;
      }
    }
  }
  for (std::int64_t c = 0; c < kNR; ++c) {
    acc[0 * kNR + c] = a0[c];
    acc[1 * kNR + c] = a1[c];
    acc[2 * kNR + c] = a2[c];
    acc[3 * kNR + c] = a3[c];
  }
}

// Smallest work one parallel task of a column-split cache block carries:
// below it, dispatch costs more than the split saves (the LM head's
// 32 x 256 x 64 tiles stay one task).
constexpr std::int64_t kMinTaskFlops = std::int64_t{1} << 20;

// The blocked driver behind every GEMM entry point: beta pre-scale, then
// jc/pc cache-block loops, and per cache block one parallel_for over a grid
// of kMC row blocks x groups of kNR column panels, each task packing its own
// A block. `panel_for(ws, jc, nc, pc, kc)` supplies the packed B stream for
// one cache block: a workspace pack made on the caller (gemm) or a
// borrowed PackedB block (gemm_packed). `kKern` consumes it at its dtype.
//
// Column groups are formed only when the row blocks alone leave ways of the
// pool idle (small m, e.g. batched decode) and each task still carries at
// least kMinTaskFlops. Every C element is written by exactly one task, with
// the same kernel call over the same packed panels in the same pc order, so
// results are bitwise identical for any grid and any pool size, and
// gemm_packed over a kF32 PackedB (the same panels gemm() packs per call)
// reproduces gemm() bit for bit.
template <QKernel kKern, typename PanelFn>
void gemm_blocked(ConstMatView a, Trans ta, std::int64_t m, std::int64_t k,
                  std::int64_t n, DType dt, MatView c, float alpha,
                  float beta, PanelFn&& panel_for) {
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

  const std::int64_t mblocks = (m + kMC - 1) / kMC;
  const auto ways = static_cast<std::int64_t>(parallel::concurrency());
  Workspace& ws = Workspace::tls();
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    const std::int64_t panels = (nc + kNR - 1) / kNR;
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      // The B stream is shared read-only by the tasks below, and
      // parallel_for joins before the scope pops.
      Workspace::Scope bscope(ws);
      const std::uint8_t* bpack = panel_for(ws, jc, nc, pc, kc);
      const std::int64_t bstride = pack::b_panel_stride_bytes(dt, kc);

      std::int64_t group_panels = panels;
      if (ways > mblocks && m > 0) {
        const std::int64_t panel_flops = 2 * std::min(m, kMC) * kc * kNR;
        const std::int64_t min_panels =
            (kMinTaskFlops + panel_flops - 1) / panel_flops;
        const std::int64_t want = std::clamp<std::int64_t>(
            panels / min_panels, 1, (ways + mblocks - 1) / mblocks);
        group_panels = (panels + want - 1) / want;
      }
      const std::int64_t groups = (panels + group_panels - 1) / group_panels;

      parallel::parallel_for(
          0, static_cast<std::size_t>(mblocks * groups), 1,
          [&](std::size_t t0, std::size_t t1) {
            Workspace& wst = Workspace::tls();
            for (std::size_t t = t0; t < t1; ++t) {
              const auto task = static_cast<std::int64_t>(t);
              const std::int64_t ic = task / groups * kMC;
              const std::int64_t mc = std::min(kMC, m - ic);
              const std::int64_t jr0 = task % groups * group_panels * kNR;
              const std::int64_t jr1 = std::min(nc, jr0 + group_panels * kNR);
              Workspace::Scope ascope(wst);
              float* apack = wst.alloc_f32(
                  static_cast<std::size_t>(pack::a_panel_floats(mc, kc)));
              const std::int64_t apanels =
                  pack::pack_a(a, ta, ic, mc, pc, kc, alpha, apack);
              if (g_metrics.a_panels != nullptr) {
                g_metrics.a_panels->add(static_cast<std::uint64_t>(apanels));
              }
              float acc[kMR * kNR];
              for (std::int64_t jr = jr0; jr < jr1; jr += kNR) {
                const std::int64_t nr = std::min(kNR, nc - jr);
                const std::uint8_t* bp = bpack + (jr / kNR) * bstride;
                for (std::int64_t ir = 0; ir < mc; ir += kMR) {
                  const std::int64_t mr = std::min(kMR, mc - ir);
                  const float* ap = apack + (ir / kMR) * kc * kMR;
                  kKern(ap, bp, kc, acc);
                  for (std::int64_t r = 0; r < mr; ++r) {
                    float* crow =
                        c.data + (ic + ir + r) * c.stride + jc + jr;
                    const float* arow = acc + r * kNR;
                    for (std::int64_t cc = 0; cc < nr; ++cc) {
                      crow[cc] += arow[cc];
                    }
                  }
                }
              }
            }
          });
    }
  }

  if (g_metrics.ws_high_water != nullptr) {
    g_metrics.ws_high_water->set_max(
        static_cast<double>(ws.high_water_bytes()));
  }
}

// gemm_blocked over `dt`'s microkernel.
template <typename PanelFn>
void gemm_dt_driver(ConstMatView a, Trans ta, std::int64_t m, std::int64_t k,
                    std::int64_t n, DType dt, MatView c, float alpha,
                    float beta, PanelFn&& panel_for) {
  switch (dt) {
    case DType::kQ8_0:
      gemm_blocked<micro_kernel_q8>(a, ta, m, k, n, dt, c, alpha, beta,
                                    panel_for);
      return;
    case DType::kQ4_0:
      gemm_blocked<micro_kernel_q4>(a, ta, m, k, n, dt, c, alpha, beta,
                                    panel_for);
      return;
    case DType::kF32:
    case DType::kBf16:
      gemm_blocked<micro_kernel_f32p>(a, ta, m, k, n, dt, c, alpha, beta,
                                      panel_for);
      return;
  }
}

}  // namespace

void gemm(ConstMatView a, Trans ta, ConstMatView b, Trans tb, MatView c,
          float alpha, float beta) {
  const std::int64_t m = (ta == Trans::No) ? a.rows : a.cols;
  const std::int64_t k = (ta == Trans::No) ? a.cols : a.rows;
  const std::int64_t kb = (tb == Trans::No) ? b.rows : b.cols;
  const std::int64_t n = (tb == Trans::No) ? b.cols : b.rows;
  assert(k == kb);
  (void)kb;
  gemm_blocked<micro_kernel_f32p>(
      a, ta, m, k, n, DType::kF32, c, alpha, beta,
      [&](Workspace& ws, std::int64_t jc, std::int64_t nc, std::int64_t pc,
          std::int64_t kc) {
        float* bpack = ws.alloc_f32(
            static_cast<std::size_t>(pack::b_panel_floats(nc, kc)));
        const std::int64_t bpanels =
            pack::pack_b(b, tb, pc, kc, jc, nc, bpack);
        if (g_metrics.b_panels != nullptr) {
          g_metrics.b_panels->add(static_cast<std::uint64_t>(bpanels));
        }
        return reinterpret_cast<const std::uint8_t*>(bpack);
      });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  gemm(a.view(), Trans::No, b.view(), Trans::No, c.view());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  gemm(a.view(), Trans::No, b.view(), Trans::Yes, c.view());
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c(a.cols(), b.cols());
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
  gemm_dt_driver(a, ta, m, b.k(), b.n(), b.dtype(), c, alpha, beta,
                 [&](Workspace& /*ws*/, std::int64_t jc, std::int64_t /*nc*/,
                     std::int64_t pc, std::int64_t /*kc*/) {
                   return b.cache_block(jc / kNC, pc / kKC);
                 });
}

Tensor packed_matmul(const Tensor& a, const PackedB& b) {
  Tensor c(a.rows(), b.n());
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
