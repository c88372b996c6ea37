// Dtype conformance suite (DESIGN.md section 16).
//
// Part 1 — bf16 numerical fidelity: the distributed algorithms must stay
// close to the fp32 reference when activations are rounded to bf16 at the
// communication boundary (what real NCCL transfers carry).
//
// Part 2 — quantized weight formats: Q8_0/Q4_0 round-trip error bounds,
// block-boundary and odd-remainder (K % 32 != 0) packing, and two-level
// GEMM parity: the dequantize-in-microkernel path must be *bitwise* equal
// to the fp32 GEMM over the pre-dequantized operand (same fp expression,
// same accumulation order), and within the format's documented error bound
// of the unquantized fp32 result.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>

#include "comm/sim_transport.hpp"
#include "core/dist_attention.hpp"
#include "core/partition.hpp"
#include "kernels/reference_attention.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/cluster.hpp"
#include "tensor/dtype.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst {
namespace {

using tensor::DType;
using tensor::kQuantBlock;
using tensor::PackedB;
using tensor::Rng;
using tensor::Tensor;
using tensor::Trans;

TEST(Bf16, RoundingIdentityForRepresentables) {
  Tensor t(1, 4);
  t(0, 0) = 1.0f;
  t(0, 1) = -2.5f;
  t(0, 2) = 0.0f;
  t(0, 3) = 96.0f;
  Tensor before = t;
  tensor::round_bf16_inplace(t);
  EXPECT_FLOAT_EQ(tensor::max_abs_diff(t, before), 0.0f);
}

TEST(Bf16, RelativeErrorBounded) {
  Rng rng(5);
  Tensor t = rng.gaussian(64, 64, 3.0f);
  Tensor orig = t;
  tensor::round_bf16_inplace(t);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float a = orig.data()[i];
    const float b = t.data()[i];
    // bf16 has 8 mantissa bits: relative error <= 2^-8.
    EXPECT_LE(std::fabs(a - b), std::fabs(a) * (1.0f / 256.0f) + 1e-30f);
  }
}

TEST(Bf16, RoundToNearestEven) {
  // 1 + 2^-9 sits exactly between two bf16 values; ties go to even (1.0).
  Tensor t(1, 1);
  t(0, 0) = 1.0f + std::ldexp(1.0f, -9);
  tensor::round_bf16_inplace(t);
  EXPECT_FLOAT_EQ(t(0, 0), 1.0f);
}

// Distributed BurstAttention with inputs quantized to bf16 must track the
// fp32 reference to bf16-level error — the rounding must not be amplified
// by the online-softmax merges or the ring accumulation order.
TEST(Bf16, BurstAttentionStableUnderQuantizedInputs) {
  const std::int64_t n = 64;
  const std::int64_t d = 16;
  const int g = 4;
  Rng rng(11);
  Tensor q = rng.gaussian(n, d, 0.7f);
  Tensor k = rng.gaussian(n, d, 0.7f);
  Tensor v = rng.gaussian(n, d, 0.7f);
  tensor::round_bf16_inplace(q);
  tensor::round_bf16_inplace(k);
  tensor::round_bf16_inplace(v);

  const auto id = kernels::IndexMap::range(0, n);
  auto ref = kernels::reference_attention_forward(
      q, id, k, v, id, kernels::MaskSpec::causal(), 0.25f);

  core::DistAttnConfig cfg;
  cfg.mask = kernels::MaskSpec::causal();
  cfg.scale = 0.25f;
  cfg.balance = core::Balance::kZigzag;
  cfg.seq_len = n;

  sim::Cluster cluster({sim::Topology::single_node(g)});
  Tensor o_global = Tensor::zeros(n, d);
  std::mutex mu;
  cluster.run([&](sim::DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    const auto route = core::SweepRoute::flat(comm::flat_ring(g));
    const auto map = core::route_index_map(route, cfg, ctx.rank());
    core::LocalQKV local{core::shard_rows(q, map), core::shard_rows(k, map),
                         core::shard_rows(v, map)};
    // Quantize what would ride the wire each hop.
    tensor::round_bf16_inplace(local.k);
    tensor::round_bf16_inplace(local.v);
    auto fwd = core::dist_attention_forward(comm, route, cfg, local);
    std::lock_guard lock(mu);
    core::unshard_rows(o_global, map, fwd.o);
  });

  // Inputs were identical (already bf16); only fp32-accumulation order
  // differs from the reference, so agreement should be tight.
  EXPECT_LT(tensor::max_abs_diff(o_global, ref.o), 1e-4f);
}

// ---- quantized block formats ----------------------------------------------

// Quantize one kQuantBlock-column of `src` (column j, rows [k0, k0+n)) and
// dequantize it back, mirroring the packed-panel grouping: blocks run along
// K per column, restarting at each 256-row KC slice (a no-op for the global
// 32-block grid since 256 % 32 == 0, except that a short K edge makes a
// short final block).
Tensor dequantize_reference(const Tensor& b, DType dt) {
  Tensor out(b.rows(), b.cols());
  for (std::int64_t j = 0; j < b.cols(); ++j) {
    for (std::int64_t k0 = 0; k0 < b.rows(); k0 += kQuantBlock) {
      const std::int64_t n = std::min(kQuantBlock, b.rows() - k0);
      const float* col = b.data() + k0 * b.cols() + j;
      const auto stride = b.cols();
      if (dt == DType::kQ8_0) {
        std::int8_t qs[kQuantBlock];
        const float s = tensor::quantize_block_q8_0(col, n, stride, qs, 1);
        for (std::int64_t i = 0; i < n; ++i) {
          out(k0 + i, j) = tensor::dequantize_q8_0(s, qs[i]);
        }
      } else {
        std::uint8_t codes[kQuantBlock];
        const float s = tensor::quantize_block_q4_0(col, n, stride, codes, 1);
        for (std::int64_t i = 0; i < n; ++i) {
          out(k0 + i, j) = tensor::dequantize_q4_0(s, codes[i]);
        }
      }
    }
  }
  return out;
}

float frob_norm(const Tensor& t) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    acc += static_cast<double>(t.data()[i]) * t.data()[i];
  }
  return static_cast<float>(std::sqrt(acc));
}

float rel_frob_err(const Tensor& got, const Tensor& want) {
  Tensor diff(got.rows(), got.cols());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    diff.data()[i] = got.data()[i] - want.data()[i];
  }
  return frob_norm(diff) / frob_norm(want);
}

TEST(QuantFormats, Q8RoundTripBoundedByHalfStep) {
  Rng rng(21);
  Tensor x = rng.gaussian(1, kQuantBlock, 2.0f);
  std::int8_t qs[kQuantBlock];
  const float scale = tensor::quantize_block_q8_0(x.data(), kQuantBlock, 1,
                                                  qs, 1);
  ASSERT_GT(scale, 0.0f);
  for (std::int64_t i = 0; i < kQuantBlock; ++i) {
    const float back = tensor::dequantize_q8_0(scale, qs[i]);
    // Round-to-nearest over a symmetric [-127, 127] grid: error <= step/2.
    EXPECT_LE(std::fabs(back - x.data()[i]), 0.5f * scale + 1e-6f) << i;
  }
}

TEST(QuantFormats, Q4RoundTripBoundedByOneStepExtremalExact) {
  Rng rng(22);
  Tensor x = rng.gaussian(1, kQuantBlock, 2.0f);
  float amax = 0.0f;
  std::int64_t imax = 0;
  for (std::int64_t i = 0; i < kQuantBlock; ++i) {
    if (std::fabs(x.data()[i]) > amax) {
      amax = std::fabs(x.data()[i]);
      imax = i;
    }
  }
  std::uint8_t codes[kQuantBlock];
  const float scale = tensor::quantize_block_q4_0(x.data(), kQuantBlock, 1,
                                                  codes, 1);
  for (std::int64_t i = 0; i < kQuantBlock; ++i) {
    const float back = tensor::dequantize_q4_0(scale, codes[i]);
    // Codes span [-8, 7] while x/scale spans [-8, 8]: nearest-code error is
    // at most one step (the clamp case at the opposite extreme).
    EXPECT_LE(std::fabs(back - x.data()[i]), std::fabs(scale) + 1e-6f) << i;
  }
  // The signed extremal element keys the scale (scale = smax / -8, exact in
  // fp since 8 is a power of two), so it must round-trip bitwise.
  EXPECT_EQ(codes[imax], 0);  // the -8 code
  EXPECT_EQ(tensor::dequantize_q4_0(scale, codes[imax]), x.data()[imax]);
}

TEST(QuantFormats, OddRemainderBlocksPadWithExactZero) {
  Rng rng(23);
  const std::int64_t n = 20;  // partial block: 20 of 32 elements
  Tensor x = rng.gaussian(1, n, 1.0f);
  std::int8_t qs[kQuantBlock];
  tensor::quantize_block_q8_0(x.data(), n, 1, qs, 1);
  for (std::int64_t i = n; i < kQuantBlock; ++i) {
    EXPECT_EQ(qs[i], 0) << i;
  }
  std::uint8_t codes[kQuantBlock];
  const float s4 = tensor::quantize_block_q4_0(x.data(), n, 1, codes, 1);
  for (std::int64_t i = n; i < kQuantBlock; ++i) {
    EXPECT_EQ(codes[i], 8) << i;  // biased zero
    // burst-lint: allow(no-naked-float-eq) padding must decode to exact 0.0f
    EXPECT_EQ(tensor::dequantize_q4_0(s4, codes[i]), 0.0f);
  }
}

TEST(QuantFormats, RoundTripRmsWithinFormatBudget) {
  // DESIGN.md section 16 error budget: RMS relative error (vs the block's
  // RMS magnitude) stays under ~1% for Q8_0 and ~10% for Q4_0 on gaussian
  // weights. These are the documented planning numbers; the GEMM parity
  // tests below bound end-to-end error.
  Rng rng(24);
  Tensor w = rng.gaussian(96, 64, 0.8f);
  const Tensor q8 = dequantize_reference(w, DType::kQ8_0);
  const Tensor q4 = dequantize_reference(w, DType::kQ4_0);
  EXPECT_LT(rel_frob_err(q8, w), 0.01f);
  EXPECT_LT(rel_frob_err(q4, w), 0.10f);
  EXPECT_GT(rel_frob_err(q4, w), rel_frob_err(q8, w));  // q4 is coarser
}

// ---- packed GEMM parity ---------------------------------------------------

// The f32 PackedB path must reproduce gemm() bit for bit — same packing,
// same microkernel, same blocking — including odd shapes that exercise
// remainder tiles and a K that is not a multiple of the quant block.
TEST(QuantGemm, PackedF32BitwiseEqualsGemm) {
  Rng rng(31);
  const std::int64_t m = 33;
  const std::int64_t k = 70;  // k % 32 != 0, k % 256 != 0
  const std::int64_t n = 50;
  Tensor a = rng.gaussian(m, k, 1.0f);
  Tensor b = rng.gaussian(k, n, 1.0f);
  Tensor want(m, n);
  tensor::gemm(a.view(), Trans::No, b.view(), Trans::No, want.view(), 0.7f);

  const PackedB pb = PackedB::pack(b.view(), Trans::No, DType::kF32);
  EXPECT_EQ(pb.k(), k);
  EXPECT_EQ(pb.n(), n);
  Tensor got(m, n);
  tensor::gemm_packed(a.view(), Trans::No, pb, got.view(), 0.7f);
  EXPECT_FLOAT_EQ(tensor::max_abs_diff(got, want), 0.0f);

  // Transposed B operand resolves at pack time.
  Tensor bt = rng.gaussian(n, k, 1.0f);
  Tensor want_t(m, n);
  tensor::gemm(a.view(), Trans::No, bt.view(), Trans::Yes, want_t.view());
  const PackedB pbt = PackedB::pack(bt.view(), Trans::Yes, DType::kF32);
  Tensor got_t(m, n);
  tensor::gemm_packed(a.view(), Trans::No, pbt, got_t.view());
  EXPECT_FLOAT_EQ(tensor::max_abs_diff(got_t, want_t), 0.0f);
}

// Level 1 parity: the dequantize-in-microkernel path computes the exact
// same fp expression as the f32 GEMM over the pre-dequantized operand, so
// the two must agree bitwise — for every dtype, including the short-block
// K edge. Level 2: the result stays within the format's error budget of
// the unquantized fp32 product.
TEST(QuantGemm, DequantInKernelBitwiseEqualsDequantThenGemm) {
  Rng rng(32);
  const std::int64_t m = 21;
  const std::int64_t k = 300;  // spans a kKC boundary; 300 % 32 != 0
  const std::int64_t n = 40;
  Tensor a = rng.gaussian(m, k, 0.9f);
  Tensor b = rng.gaussian(k, n, 0.9f);
  Tensor ref(m, n);
  tensor::gemm(a.view(), Trans::No, b.view(), Trans::No, ref.view());

  for (const DType dt : {DType::kQ8_0, DType::kQ4_0}) {
    const PackedB pb = PackedB::pack(b.view(), Trans::No, dt);
    Tensor got(m, n);
    tensor::gemm_packed(a.view(), Trans::No, pb, got.view());

    const Tensor bdq = dequantize_reference(b, dt);
    Tensor want(m, n);
    tensor::gemm(a.view(), Trans::No, bdq.view(), Trans::No, want.view());
    EXPECT_FLOAT_EQ(tensor::max_abs_diff(got, want), 0.0f)
        << tensor::dtype_name(dt);

    const float budget = dt == DType::kQ8_0 ? 0.02f : 0.15f;
    EXPECT_LT(rel_frob_err(got, ref), budget) << tensor::dtype_name(dt);
    // And the error is real: quantization must actually have happened.
    EXPECT_GT(tensor::max_abs_diff(got, ref), 0.0f) << tensor::dtype_name(dt);
  }
}

// bf16 packs round B once at pack time; the GEMM must equal the f32 GEMM
// over the pre-rounded operand bitwise.
TEST(QuantGemm, PackedBf16BitwiseEqualsGemmOverRoundedB) {
  Rng rng(33);
  Tensor a = rng.gaussian(17, 45, 1.0f);
  Tensor b = rng.gaussian(45, 29, 1.0f);
  const PackedB pb = PackedB::pack(b.view(), Trans::No, DType::kBf16);
  Tensor got = tensor::packed_matmul(a, pb);

  tensor::round_bf16_inplace(b);
  const Tensor want = tensor::matmul(a, b);
  EXPECT_FLOAT_EQ(tensor::max_abs_diff(got, want), 0.0f);
}

// gemm_packed reads the pack one (jc, pc) cache block at a time. A grid of
// 2 x 2 blocks with a short edge on both axes must still equal the f32 GEMM
// over the operand the pack encodes, bitwise, with beta = 1 accumulation,
// for every dtype and for a B stored either way round.
class QuantGemmBlockGrid
    : public ::testing::TestWithParam<std::tuple<DType, Trans>> {};

TEST_P(QuantGemmBlockGrid, PackedEqualsGemmOverEncodedOperand) {
  const auto [dt, tb] = GetParam();
  Rng rng(38);
  const std::int64_t m = 9;
  const std::int64_t k = 256 + 100;  // two 256-deep KC blocks, short edge
  const std::int64_t n = 512 + 200;  // two 512-wide NC blocks, short edge
  const Tensor a = rng.gaussian(m, k, 0.8f);
  const Tensor b = rng.gaussian(k, n, 0.8f);
  const Tensor c0 = rng.gaussian(m, n, 1.0f);
  const Tensor stored = tb == Trans::No ? b : tensor::transpose(b);
  const PackedB pb = PackedB::pack(stored.view(), tb, dt);
  ASSERT_EQ(pb.k(), k);
  ASSERT_EQ(pb.n(), n);

  Tensor encoded = b;
  if (dt == DType::kBf16) {
    tensor::round_bf16_inplace(encoded);
  } else if (tensor::dtype_is_quantized(dt)) {
    encoded = dequantize_reference(b, dt);
  }
  Tensor want = c0;
  tensor::gemm(a.view(), Trans::No, encoded.view(), Trans::No, want.view(),
               0.7f, 1.0f);
  Tensor got = c0;
  tensor::gemm_packed(a.view(), Trans::No, pb, got.view(), 0.7f, 1.0f);
  EXPECT_FLOAT_EQ(tensor::max_abs_diff(got, want), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, QuantGemmBlockGrid,
    ::testing::Combine(::testing::Values(DType::kF32, DType::kBf16,
                                         DType::kQ8_0, DType::kQ4_0),
                       ::testing::Values(Trans::No, Trans::Yes)),
    [](const ::testing::TestParamInfo<QuantGemmBlockGrid::ParamType>& p) {
      return std::string(tensor::dtype_name(std::get<0>(p.param))) +
             (std::get<1>(p.param) == Trans::No ? "_kn" : "_nk");
    });

// Per-dtype bitwise determinism across thread-pool sizes: the quantized
// driver inherits gemm()'s deterministic row-block partitioning.
TEST(QuantGemm, BitwiseDeterministicAcrossPoolSizes) {
  Rng rng(36);
  const std::int64_t m = 130;  // several kMC row blocks
  const std::int64_t k = 80;
  const std::int64_t n = 48;
  Tensor a = rng.gaussian(m, k, 1.0f);
  Tensor b = rng.gaussian(k, n, 1.0f);
  for (const DType dt :
       {DType::kF32, DType::kBf16, DType::kQ8_0, DType::kQ4_0}) {
    const PackedB pb = PackedB::pack(b.view(), Trans::No, dt);
    parallel::ThreadPool::reset_global(1);
    Tensor c1(m, n);
    tensor::gemm_packed(a.view(), Trans::No, pb, c1.view());
    parallel::ThreadPool::reset_global(3);
    Tensor c3(m, n);
    tensor::gemm_packed(a.view(), Trans::No, pb, c3.view());
    parallel::ThreadPool::reset_global(0);
    EXPECT_FLOAT_EQ(tensor::max_abs_diff(c1, c3), 0.0f)
        << tensor::dtype_name(dt);
  }
}

// Byte accounting: quantized packs report the real scale+payload stream;
// dense packs report K*N at their element width.
TEST(QuantGemm, ModelBytesMatchFormat) {
  Rng rng(37);
  const std::int64_t k = 64;
  const std::int64_t n = 32;  // 2 micro-panels of 16 cols, 2 k-blocks
  Tensor b = rng.gaussian(k, n, 1.0f);
  const PackedB p32 = PackedB::pack(b.view(), Trans::No, DType::kF32);
  const PackedB p16 = PackedB::pack(b.view(), Trans::No, DType::kBf16);
  const PackedB p8 = PackedB::pack(b.view(), Trans::No, DType::kQ8_0);
  const PackedB p4 = PackedB::pack(b.view(), Trans::No, DType::kQ4_0);
  EXPECT_EQ(p32.model_bytes(), static_cast<std::uint64_t>(k * n * 4));
  EXPECT_EQ(p16.model_bytes(), static_cast<std::uint64_t>(k * n * 2));
  // Per micro-panel (16 cols) per k-block: 16 scales + payload.
  const std::uint64_t q8_chunk = 16 * 4 + 32 * 16;
  const std::uint64_t q4_chunk = 16 * 4 + 16 * 16;
  EXPECT_EQ(p8.model_bytes(), 2 * 2 * q8_chunk);
  EXPECT_EQ(p4.model_bytes(), 2 * 2 * q4_chunk);
  EXPECT_LT(p4.model_bytes(), p8.model_bytes());
  EXPECT_LT(p8.model_bytes(), p32.model_bytes());
}

}  // namespace
}  // namespace burst
