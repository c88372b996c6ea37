// Panel packing for the blocked GEMM (BLIS-style).
// burst-lint: hotpath
//
// The microkernels in gemm.cpp multiply an mr x kc sliver of op(A)
// (mr <= kMR) by a kc x kNR sliver of op(B). Packing copies those slivers
// once into contiguous, transpose-resolved buffers so the microkernel's
// inner loop is branch-free and unit-stride regardless of the operand's
// Trans flag or row stride:
//
//   A block (mc x kc)  ->  ceil(mc/kMR) micro-panels of h = min(kMR,
//       mc - p*kMR) rows, each stored K-major and dense:
//       dst[p*kc*kMR + kk*h + r] = alpha * op(A)(ic + p*kMR + r, pc + kk)
//   B panel (kc x nc)  ->  ceil(nc/kNR) micro-panels, each stored K-major:
//       dst[p*kc*kNR + kk*kNR + c] = op(B)(pc + kk, jc + p*kNR + c)
//
// A short last A panel is run by the microkernel of its own height, so A
// needs no padding and a block takes exactly mc*kc floats. Remainder B
// columns are zero-padded to the full kNR so every kernel loads whole
// kNR-float rows; the kernels write back only the valid columns.
// alpha is folded into the A pack so the microkernel is a pure FMA loop.
//
// gemm_block (below) runs the register-tile loop of one cache block over
// panels packed this way, or over an A operand read in place. The GEMM
// driver and the attention kernels both call it, so every product in the
// functional path takes the same per-element arithmetic: a k-ordered FMA
// chain per C element within a block, added once into C.
//
// Quantized B panels (DESIGN.md section 16): pack_b_dt quantizes op(B) once
// at pack time into a per-micro-panel block stream the dequantizing
// microkernels in gemm.cpp walk. Per micro-panel of kNR columns, K is split
// into kQuantBlock-row blocks; each block stores
//
//   float scales[kNR];                  // per-column scale of this k-block
//   q8_0: int8  qs[kQuantBlock * kNR]   // kk-major: qs[kk*kNR + c]
//   q4_0: uint8 codes[kQuantBlock/2 * kNR]
//         // byte (j*kNR + c) packs kk=2j (low nibble) and 2j+1 (high)
//
// so the microkernel loads one 16-wide scale vector per 32 k-steps and
// streams 16 (q8) or 8 (q4, two rows) bytes per k-step — the 4-8x
// B-bandwidth saving that pays for the in-kernel int->float convert.
// bf16 panels reuse the f32 float layout with values rounded at pack time
// (byte *accounting* is 2 B/el; the functional buffer stays fp32).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/dtype.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace burst::tensor::pack {

/// Microkernel register block: up to kMR rows x kNR columns of C, one
/// kNR-float accumulator vector per row.
inline constexpr std::int64_t kMR = 16;
inline constexpr std::int64_t kNR = 16;

/// Depth of one GEMM cache block: products are summed kKC k-steps at a
/// time and each block's sum is added once into C, so a caller that packs
/// its own panels splits a deeper product at the same boundaries.
inline constexpr std::int64_t kKC = 256;

inline std::int64_t a_panel_floats(std::int64_t mc, std::int64_t kc) {
  return mc * kc;
}

inline std::int64_t b_panel_floats(std::int64_t nc, std::int64_t kc) {
  return ((nc + kNR - 1) / kNR) * kc * kNR;
}

/// Packs op(A)[ic:ic+mc, pc:pc+kc] scaled by alpha. Returns the number of
/// micro-panels written (for the pack counters).
inline std::int64_t pack_a(ConstMatView a, Trans ta, std::int64_t ic,
                           std::int64_t mc, std::int64_t pc, std::int64_t kc,
                           float alpha, float* dst) {
  const std::int64_t panels = (mc + kMR - 1) / kMR;
  for (std::int64_t p = 0; p < panels; ++p) {
    float* out = dst + p * kc * kMR;
    const std::int64_t r0 = p * kMR;
    const std::int64_t rows = std::min(kMR, mc - r0);
    if (ta == Trans::No) {
      // op(A)(i, k) = A(i, k): gather one k column of the panel's rows per
      // step, so the stores stay contiguous.
      const float* a0 = a.data + (ic + r0) * a.stride + pc;
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        for (std::int64_t r = 0; r < rows; ++r) {
          out[kk * rows + r] = alpha * a0[r * a.stride + kk];
        }
      }
    } else {
      // op(A)(i, k) = A(k, i): each source row is contiguous over i.
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* arow = a.data + (pc + kk) * a.stride + ic + r0;
        for (std::int64_t r = 0; r < rows; ++r) {
          out[kk * rows + r] = alpha * arow[r];
        }
      }
    }
  }
  return panels;
}

/// Packs op(B)[pc:pc+kc, jc:jc+nc]. Returns the number of micro-panels.
inline std::int64_t pack_b(ConstMatView b, Trans tb, std::int64_t pc,
                           std::int64_t kc, std::int64_t jc, std::int64_t nc,
                           float* dst) {
  const std::int64_t panels = (nc + kNR - 1) / kNR;
  for (std::int64_t p = 0; p < panels; ++p) {
    float* out = dst + p * kc * kNR;
    const std::int64_t c0 = p * kNR;
    const std::int64_t cols = std::min(kNR, nc - c0);
    if (tb == Trans::No) {
      // op(B)(k, j) = B(k, j): each source row is contiguous over j.
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* brow = b.data + (pc + kk) * b.stride + jc + c0;
        float* orow = out + kk * kNR;
        for (std::int64_t c = 0; c < cols; ++c) {
          orow[c] = brow[c];
        }
        for (std::int64_t c = cols; c < kNR; ++c) {
          orow[c] = 0.0f;
        }
      }
    } else {
      // op(B)(k, j) = B(j, k): each source row is contiguous over k.
      for (std::int64_t c = 0; c < cols; ++c) {
        const float* brow = b.data + (jc + c0 + c) * b.stride + pc;
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          out[kk * kNR + c] = brow[kk];
        }
      }
      if (cols < kNR) {
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          for (std::int64_t c = cols; c < kNR; ++c) {
            out[kk * kNR + c] = 0.0f;
          }
        }
      }
    }
  }
  return panels;
}

/// Packs op(B)[0:k, jc:jc+nc] as consecutive kKC-deep cache blocks, block
/// pc at dst + b_panel_floats(nc, pc): a whole operand for a caller that
/// runs gemm_block once per K block, as the GEMM driver splits a product.
inline void pack_b_blocks(ConstMatView b, Trans tb, std::int64_t k,
                          std::int64_t jc, std::int64_t nc, float* dst) {
  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    pack_b(b, tb, pc, std::min(kKC, k - pc), jc, nc,
           dst + b_panel_floats(nc, pc));
  }
}

// ---- quantized B-panel packing --------------------------------------------

/// Quantization blocks along K of a kc-row panel slice.
inline std::int64_t k_blocks(std::int64_t kc) {
  return (kc + kQuantBlock - 1) / kQuantBlock;
}

/// Bytes of one (micro-panel, k-block) chunk: kNR fp32 scales + payload.
inline std::int64_t b_chunk_bytes(DType dt) {
  switch (dt) {
    case DType::kQ8_0:
      return kNR * 4 + kQuantBlock * kNR;
    case DType::kQ4_0:
      return kNR * 4 + kQuantBlock / 2 * kNR;
    case DType::kF32:
    case DType::kBf16:
      return kQuantBlock * kNR * 4;  // plain float rows, no scales
  }
  return kQuantBlock * kNR * 4;
}

/// Stride in bytes between consecutive micro-panels of a kc-row B slice.
inline std::int64_t b_panel_stride_bytes(DType dt, std::int64_t kc) {
  if (dtype_is_quantized(dt)) {
    return k_blocks(kc) * b_chunk_bytes(dt);
  }
  return kc * kNR * 4;  // f32/bf16: kc rows of kNR floats
}

/// Total bytes of the packed op(B)[pc:pc+kc, jc:jc+nc] panel range at `dt`.
inline std::int64_t b_panel_bytes(DType dt, std::int64_t nc, std::int64_t kc) {
  return ((nc + kNR - 1) / kNR) * b_panel_stride_bytes(dt, kc);
}

/// Packs + quantizes op(B)[pc:pc+kc, jc:jc+nc] into `dst` (layout above).
/// `scratch` must hold b_panel_floats(nc, kc) floats; the f32 pack runs
/// first so every Trans/edge case is resolved once, then the codec reads
/// the panel columns at stride kNR. Padding columns quantize to exact zero.
/// Returns the number of micro-panels written. `dst` must be 4-byte aligned.
inline std::int64_t pack_b_dt(ConstMatView b, Trans tb, std::int64_t pc,
                              std::int64_t kc, std::int64_t jc,
                              std::int64_t nc, DType dt, float* scratch,
                              std::uint8_t* dst) {
  const std::int64_t panels = pack_b(b, tb, pc, kc, jc, nc, scratch);
  if (dt == DType::kF32 || dt == DType::kBf16) {
    auto* out = reinterpret_cast<float*>(dst);
    const std::int64_t floats = panels * kc * kNR;
    if (dt == DType::kF32) {
      std::memcpy(out, scratch, static_cast<std::size_t>(floats) * 4);
    } else {
      for (std::int64_t i = 0; i < floats; ++i) {
        out[i] = round_bf16(scratch[i]);
      }
    }
    return panels;
  }
  const std::int64_t nblk = k_blocks(kc);
  const std::int64_t chunk = b_chunk_bytes(dt);
  for (std::int64_t p = 0; p < panels; ++p) {
    const float* src = scratch + p * kc * kNR;
    std::uint8_t* pdst = dst + p * nblk * chunk;
    for (std::int64_t blk = 0; blk < nblk; ++blk) {
      const std::int64_t kk0 = blk * kQuantBlock;
      const std::int64_t rows = std::min(kQuantBlock, kc - kk0);
      std::uint8_t* cdst = pdst + blk * chunk;
      auto* scales = reinterpret_cast<float*>(cdst);
      std::uint8_t* payload = cdst + kNR * 4;
      for (std::int64_t c = 0; c < kNR; ++c) {
        const float* col = src + kk0 * kNR + c;
        if (dt == DType::kQ8_0) {
          auto* qs = reinterpret_cast<std::int8_t*>(payload) + c;
          scales[c] = quantize_block_q8_0(col, rows, kNR, qs, kNR);
        } else {
          std::uint8_t codes[kQuantBlock];
          scales[c] = quantize_block_q4_0(col, rows, kNR, codes, 1);
          for (std::int64_t j = 0; j < kQuantBlock / 2; ++j) {
            payload[j * kNR + c] = static_cast<std::uint8_t>(
                codes[2 * j] | (codes[2 * j + 1] << 4));
          }
        }
      }
    }
  }
  return panels;
}

/// C += Ap @ Bp over one packed cache block: the jr/ir register-tile loop.
/// `ap` holds ceil(c.rows/kMR) A micro-panels packed with depth `kc`
/// (pack_a); `bp` holds ceil(c.cols/kNR) B micro-panels at dtype `dt`,
/// `b_stride` bytes apart, each starting at this block's first k-step.
/// Every C element gets its k-ordered sum over the kc steps added once.
void gemm_block(const float* ap, const std::uint8_t* bp, std::int64_t b_stride,
                DType dt, std::int64_t kc, MatView c);

/// gemm_block over fp32 B panels `b_stride` floats apart.
inline void gemm_block(const float* ap, const float* bp, std::int64_t b_stride,
                       std::int64_t kc, MatView c) {
  gemm_block(ap, reinterpret_cast<const std::uint8_t*>(bp), b_stride * 4,
             DType::kF32, kc, c);
}

/// gemm_block with op(A) read in place instead of from pack_a panels (no
/// alpha): C += op(A) @ Bp over fp32 B panels `b_stride` floats apart. For
/// operands used once and small enough to stay in L1, where packing would
/// cost as much as the product. Same per-element arithmetic as packing A
/// with alpha = 1.
void gemm_block(ConstMatView a, Trans ta, const float* bp,
                std::int64_t b_stride, MatView c);

}  // namespace burst::tensor::pack
