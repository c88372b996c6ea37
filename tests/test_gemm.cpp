#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst::tensor {
namespace {

Tensor naive_matmul(const Tensor& a, Trans ta, const Tensor& b, Trans tb) {
  const std::int64_t m = ta == Trans::No ? a.rows() : a.cols();
  const std::int64_t k = ta == Trans::No ? a.cols() : a.rows();
  const std::int64_t n = tb == Trans::No ? b.cols() : b.rows();
  Tensor c = Tensor::zeros(m, n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = ta == Trans::No ? a(i, kk) : a(kk, i);
        const float bv = tb == Trans::No ? b(kk, j) : b(j, kk);
        acc += static_cast<double>(av) * bv;
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

struct GemmCase {
  std::int64_t m, k, n;
};

class GemmShapes : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmShapes, MatchesNaiveAllTransposeCombos) {
  const auto p = GetParam();
  Rng rng(42 + p.m * 131 + p.k * 17 + p.n);
  Tensor a_nn = rng.gaussian(p.m, p.k, 1.0f);
  Tensor a_t = rng.gaussian(p.k, p.m, 1.0f);
  Tensor b_nn = rng.gaussian(p.k, p.n, 1.0f);
  Tensor b_t = rng.gaussian(p.n, p.k, 1.0f);

  {
    Tensor c(p.m, p.n);
    gemm(a_nn.view(), Trans::No, b_nn.view(), Trans::No, c.view());
    EXPECT_LT(max_abs_diff(c, naive_matmul(a_nn, Trans::No, b_nn, Trans::No)),
              2e-4f);
  }
  {
    Tensor c(p.m, p.n);
    gemm(a_nn.view(), Trans::No, b_t.view(), Trans::Yes, c.view());
    EXPECT_LT(max_abs_diff(c, naive_matmul(a_nn, Trans::No, b_t, Trans::Yes)),
              2e-4f);
  }
  {
    Tensor c(p.m, p.n);
    gemm(a_t.view(), Trans::Yes, b_nn.view(), Trans::No, c.view());
    EXPECT_LT(max_abs_diff(c, naive_matmul(a_t, Trans::Yes, b_nn, Trans::No)),
              2e-4f);
  }
  {
    Tensor c(p.m, p.n);
    gemm(a_t.view(), Trans::Yes, b_t.view(), Trans::Yes, c.view());
    EXPECT_LT(max_abs_diff(c, naive_matmul(a_t, Trans::Yes, b_t, Trans::Yes)),
              2e-4f);
  }
}

// Shapes straddle the blocking tile sizes (32/64) to exercise full tiles,
// remainders, and degenerate K=1 paths.
INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(GemmCase{1, 1, 1},
                                           GemmCase{3, 5, 7},
                                           GemmCase{32, 64, 64},
                                           GemmCase{33, 65, 66},
                                           GemmCase{64, 1, 64},
                                           GemmCase{100, 40, 9},
                                           GemmCase{17, 128, 31},
                                           // Straddle the packing cache
                                           // blocks (MC=64, KC=256, NC=512)
                                           // with non-multiple remainders.
                                           GemmCase{65, 257, 513},
                                           GemmCase{130, 300, 60}));

TEST(Gemm, AlphaBetaSemantics) {
  Rng rng(5);
  Tensor a = rng.gaussian(4, 3, 1.0f);
  Tensor b = rng.gaussian(3, 5, 1.0f);
  Tensor c0 = rng.gaussian(4, 5, 1.0f);

  Tensor c = c0;
  gemm(a.view(), Trans::No, b.view(), Trans::No, c.view(), 2.0f, 0.5f);

  Tensor expected = naive_matmul(a, Trans::No, b, Trans::No);
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    expected.data()[i] = 2.0f * expected.data()[i] + 0.5f * c0.data()[i];
  }
  EXPECT_LT(max_abs_diff(c, expected), 2e-4f);
}

TEST(Gemm, AccumulateWithBetaOne) {
  Rng rng(6);
  Tensor a = rng.gaussian(2, 2, 1.0f);
  Tensor b = rng.gaussian(2, 2, 1.0f);
  Tensor c = Tensor::full(2, 2, 1.0f);
  gemm(a.view(), Trans::No, b.view(), Trans::No, c.view(), 1.0f, 1.0f);
  Tensor expected = naive_matmul(a, Trans::No, b, Trans::No);
  for (std::int64_t i = 0; i < 4; ++i) {
    expected.data()[i] += 1.0f;
  }
  EXPECT_LT(max_abs_diff(c, expected), 1e-5f);
}

// IEEE semantics: a zero in A must not suppress an inf/NaN in B. An earlier
// implementation skipped multiplies where A(i,k) == 0, silently dropping
// 0 * inf = NaN and defeating vectorization; this pins the correct behaviour.
TEST(Gemm, ZeroTimesInfFollowsIeee) {
  Tensor a = Tensor::zeros(2, 2);
  a(0, 0) = 0.0f;
  a(0, 1) = 1.0f;
  a(1, 0) = 1.0f;
  a(1, 1) = 0.0f;
  Tensor b = Tensor::zeros(2, 2);
  b(0, 0) = std::numeric_limits<float>::infinity();
  b(0, 1) = 2.0f;
  b(1, 0) = 3.0f;
  b(1, 1) = std::numeric_limits<float>::quiet_NaN();
  Tensor c(2, 2);
  gemm(a.view(), Trans::No, b.view(), Trans::No, c.view());
  // Row 0: 0*inf + 1*3 = NaN + 3 = NaN; 0*2 + 1*NaN = NaN.
  EXPECT_TRUE(std::isnan(c(0, 0)));
  EXPECT_TRUE(std::isnan(c(0, 1)));
  // Row 1: 1*inf + 0*3 = inf; 1*2 + 0*NaN = NaN.
  EXPECT_TRUE(std::isinf(c(1, 0)));
  EXPECT_GT(c(1, 0), 0.0f);
  EXPECT_TRUE(std::isnan(c(1, 1)));
}

// Strided operands: column blocks of a wider matrix (head slices) must give
// the same values as contiguous copies of the same data.
TEST(Gemm, WorksOnColBlockViews) {
  Rng rng(10);
  Tensor a_wide = rng.gaussian(20, 12, 1.0f);
  Tensor b_wide = rng.gaussian(12, 4, 1.0f);
  Tensor c(20, 4);
  gemm(a_wide.col_block(4, 4), Trans::No, b_wide.row_block(4, 4), Trans::No,
       c.view());
  Tensor a_sub = copy_cols(a_wide, 4, 4);
  Tensor b_sub = b_wide.copy_rows(4, 4);
  Tensor expect(20, 4);
  gemm(a_sub.view(), Trans::No, b_sub.view(), Trans::No, expect.view());
  // burst-lint: allow(no-naked-float-eq) strided-view gemm must match the
  // packed contiguous path bitwise
  EXPECT_EQ(max_abs_diff(c, expect), 0.0f);
}

TEST(Gemm, WorksOnRowBlockViews) {
  Rng rng(8);
  Tensor big = rng.gaussian(8, 4, 1.0f);
  Tensor b = rng.gaussian(4, 4, 1.0f);
  Tensor c(2, 4);
  gemm(big.row_block(2, 2), Trans::No, b.view(), Trans::No, c.view());
  Tensor sub = big.copy_rows(2, 2);
  EXPECT_LT(max_abs_diff(c, naive_matmul(sub, Trans::No, b, Trans::No)), 1e-4f);
}

TEST(Gemm, ConvenienceWrappers) {
  Rng rng(9);
  Tensor a = rng.gaussian(3, 4, 1.0f);
  Tensor b = rng.gaussian(4, 2, 1.0f);
  EXPECT_LT(max_abs_diff(matmul(a, b), naive_matmul(a, Trans::No, b, Trans::No)),
            1e-4f);
  Tensor bt = rng.gaussian(2, 4, 1.0f);
  EXPECT_LT(
      max_abs_diff(matmul_nt(a, bt), naive_matmul(a, Trans::No, bt, Trans::Yes)),
      1e-4f);
  Tensor at = rng.gaussian(4, 3, 1.0f);
  EXPECT_LT(
      max_abs_diff(matmul_tn(at, b), naive_matmul(at, Trans::Yes, b, Trans::No)),
      1e-4f);
}

// Batched decode rests on this: a C row's arithmetic does not depend on how
// many other rows share the GEMM (one register accumulator chain per row,
// k-blocking fixed by the 256-deep KC block), so row i of a GEMM over m rows
// is bitwise the GEMM of row i alone. k and n cross the KC and the 512-wide
// NC blocks; m crosses the 16-row microkernel tile (short last panels run
// their own smaller-row kernels) and the 64-row MC block.
TEST(Gemm, RowResultIndependentOfBatchRows) {
  constexpr std::int64_t k = 300;
  constexpr std::int64_t n = 700;
  Rng rng(77);
  const Tensor b = rng.gaussian(k, n, 1.0f);
  const Tensor b_t = rng.gaussian(n, k, 1.0f);
  const PackedB q8 = PackedB::pack(b.view(), Trans::No, DType::kQ8_0);
  const PackedB q4 = PackedB::pack(b.view(), Trans::No, DType::kQ4_0);
  struct Variant {
    std::string name;
    std::function<void(const Tensor&, Tensor&)> run;
  };
  const std::vector<Variant> variants = {
      {"gemm", [&](const Tensor& a, Tensor& c) {
         gemm(a.view(), Trans::No, b.view(), Trans::No, c.view());
       }},
      {"gemm_nt", [&](const Tensor& a, Tensor& c) {
         gemm(a.view(), Trans::No, b_t.view(), Trans::Yes, c.view());
       }},
      {"gemm_packed_q8", [&](const Tensor& a, Tensor& c) {
         gemm_packed(a.view(), Trans::No, q8, c.view());
       }},
      {"gemm_packed_q4", [&](const Tensor& a, Tensor& c) {
         gemm_packed(a.view(), Trans::No, q4, c.view());
       }},
  };
  for (const std::size_t workers : {1u, 4u}) {
    parallel::ThreadPool::reset_global(workers);
    for (const std::int64_t m : {1, 3, 4, 5, 15, 16, 17, 31, 33, 64, 65, 130}) {
      const Tensor a = rng.gaussian(m, k, 1.0f);
      for (const Variant& v : variants) {
        Tensor batched(m, n);
        v.run(a, batched);
        Tensor alone(1, n);
        for (std::int64_t i = 0; i < m; ++i) {
          v.run(a.copy_rows(i, 1), alone);
          ASSERT_EQ(std::memcmp(batched.data() + i * n, alone.data(),
                                static_cast<std::size_t>(n) * sizeof(float)),
                    0)
              << v.name << " m=" << m << " row " << i << " pool " << workers;
        }
      }
    }
  }
  parallel::ThreadPool::reset_global();
}

// The column-split twin of RowResultIndependentOfBatchRows. Small-m GEMMs
// split each cache block's column panels across the pool, and the grid
// depends on m, k and the pool size. Every C element must still see the same
// arithmetic: results at pools 1, 2 and 4 are memcmp-equal, the last row
// equals that row computed alone, and kF32 gemm_packed stays bitwise
// gemm(). The quantized microkernels run through the Q8_0/Q4_0 packs. One
// instance per (k, n), so ctest runs them in parallel.
class GemmColumnSplit
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(GemmColumnSplit, ResultIndependentOfGridAndPool) {
  const auto [k, n] = GetParam();
  Rng rng(91 + static_cast<std::uint64_t>(k * 4099 + n));
  const Tensor b = rng.gaussian(k, n, 1.0f);
  const Tensor b_t = rng.gaussian(n, k, 1.0f);
  const PackedB f32 = PackedB::pack(b.view(), Trans::No, DType::kF32);
  const PackedB bf16 = PackedB::pack(b.view(), Trans::No, DType::kBf16);
  const PackedB q8 = PackedB::pack(b.view(), Trans::No, DType::kQ8_0);
  const PackedB q4 = PackedB::pack(b.view(), Trans::No, DType::kQ4_0);
  struct Variant {
    std::string name;
    std::function<void(const Tensor&, Tensor&)> run;
  };
  const std::vector<Variant> variants = {
      {"gemm", [&](const Tensor& a, Tensor& c) {
         gemm(a.view(), Trans::No, b.view(), Trans::No, c.view());
       }},
      {"gemm_nt", [&](const Tensor& a, Tensor& c) {
         gemm(a.view(), Trans::No, b_t.view(), Trans::Yes, c.view());
       }},
      {"gemm_packed_bf16", [&](const Tensor& a, Tensor& c) {
         gemm_packed(a.view(), Trans::No, bf16, c.view());
       }},
      {"gemm_packed_f32", [&](const Tensor& a, Tensor& c) {
         gemm_packed(a.view(), Trans::No, f32, c.view());
       }},
      {"gemm_packed_q8", [&](const Tensor& a, Tensor& c) {
         gemm_packed(a.view(), Trans::No, q8, c.view());
       }},
      {"gemm_packed_q4", [&](const Tensor& a, Tensor& c) {
         gemm_packed(a.view(), Trans::No, q4, c.view());
       }},
  };
  for (const std::int64_t m : {1, 3, 15, 16, 17, 31, 33, 64, 65}) {
    const Tensor a = rng.gaussian(m, k, 1.0f);
    const auto bytes =
        static_cast<std::size_t>(m * n) * sizeof(float);
    std::vector<Tensor> pool1;
    for (const std::size_t ways : {1u, 2u, 4u}) {
      parallel::ThreadPool::reset_global(ways);
      for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        const Variant& v = variants[vi];
        Tensor c(m, n);
        v.run(a, c);
        const std::string where = v.name + " m=" + std::to_string(m) +
                                  " n=" + std::to_string(n) +
                                  " k=" + std::to_string(k) +
                                  " pool " + std::to_string(ways);
        if (ways == 1) {
          pool1.push_back(c);
          continue;
        }
        ASSERT_EQ(std::memcmp(c.data(), pool1[vi].data(), bytes), 0)
            << where;
        if (ways != 4) {
          continue;
        }
        Tensor last(1, n);
        v.run(a.copy_rows(m - 1, 1), last);
        ASSERT_EQ(std::memcmp(c.data() + (m - 1) * n, last.data(),
                              static_cast<std::size_t>(n) * sizeof(float)),
                  0)
            << where << " last row";
      }
    }
    // Index 0 is gemm(), index 3 the kF32 pack of the same operand.
    ASSERT_EQ(std::memcmp(pool1[3].data(), pool1[0].data(), bytes), 0)
        << "kF32 gemm_packed vs gemm m=" << m << " n=" << n
        << " k=" << k;
  }
  parallel::ThreadPool::reset_global();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmColumnSplit,
    ::testing::Combine(::testing::Values<std::int64_t>(256, 688),
                       ::testing::Values<std::int64_t>(16, 688, 2048)));

}  // namespace
}  // namespace burst::tensor
