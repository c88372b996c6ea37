// The shared softmax primitive (tensor/softmax.hpp): accuracy of the
// branch-free exp over every float in [-87, 88], its edge cases, and the
// fixed-lane-order row reductions.
#include "tensor/softmax.hpp"
// burst-lint: allow-file(no-naked-float-eq) exact results are the contract under test: exp(-inf) == 0, exp(0) == 1, bitwise lane-order sums, untouched sentinels

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "tensor/rng.hpp"

namespace burst::tensor {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// exp(x) in double to ~1e-13 relative: x = n*ln2 + r with |r| <= ln2/2, a
// degree-12 Taylor series for exp(r), scaled by 2^n built in the exponent
// bits. Straight-line double arithmetic, so the sweep's batch loop
// vectorizes (a std::exp call per float would take minutes).
double reference_exp(double x) {
  constexpr double kRound = 6755399441055744.0;  // 1.5 * 2^52
  const double t = x * 1.4426950408889634 + kRound;
  const double n = t - kRound;
  const double r = x - n * 0.6931471805599453;
  double p = 1.0 / 479001600.0;  // 1/12!
  p = p * r + 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  const std::uint64_t nbits =
      std::bit_cast<std::uint64_t>(t) - std::bit_cast<std::uint64_t>(kRound);
  return p * std::bit_cast<double>((nbits + 1023u) << 52);
}

// Counts the floats of one batch whose exp_f32 misses the reference by
// more than `tol` relative. The batch runs through the library's batch path
// (exp_sub_sum with m = 0, so x - m == x exactly): the same compiled code
// the kernels run. Counting instead of taking a max keeps the check loop a
// vectorizable integer reduction.
std::uint32_t count_inaccurate(const float* x, float* y, std::size_t n,
                               double tol) {
  exp_sub_sum(x, y, static_cast<std::int64_t>(n), 0.0f);
  std::uint32_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ref = reference_exp(static_cast<double>(x[i]));
    bad += std::abs(static_cast<double>(y[i]) - ref) > tol * ref;
  }
  return bad;
}

TEST(SoftmaxExp, EveryFloatInRangeWithinTwoTenthsOfAMicro) {
  constexpr double kTol = 2e-7;  // measured worst: ~8.5e-8
  constexpr std::uint32_t kBatch = 4096;
  // Bit patterns of [+0, 88] and [-0, -87]: within one sign they grow in
  // magnitude, so each range is one contiguous run of patterns.
  const std::uint32_t pos_end = std::bit_cast<std::uint32_t>(88.0f);
  const std::uint32_t neg_begin = std::bit_cast<std::uint32_t>(-0.0f);
  const std::uint32_t neg_end = std::bit_cast<std::uint32_t>(-87.0f);
  const std::size_t pos_batches = pos_end / kBatch + 1;
  const std::size_t batches = pos_batches + (neg_end - neg_begin) / kBatch + 1;
  std::atomic<std::uint64_t> bad{0};
  parallel::parallel_for(0, batches, 1024, [&](std::size_t b0, std::size_t b1) {
    std::vector<float> x(kBatch);
    std::vector<float> y(kBatch);
    std::uint64_t chunk_bad = 0;
    for (std::size_t b = b0; b < b1; ++b) {
      const bool pos = b < pos_batches;
      const std::uint32_t base =
          pos ? static_cast<std::uint32_t>(b) * kBatch
              : neg_begin + static_cast<std::uint32_t>(b - pos_batches) * kBatch;
      const std::uint32_t end = pos ? pos_end : neg_end;
      for (std::uint32_t i = 0; i < kBatch; ++i) {
        // Past `end`, repeat the endpoint so every batch stays full.
        x[i] = std::bit_cast<float>(std::min(end, base + i));
      }
      chunk_bad += count_inaccurate(x.data(), y.data(), kBatch, kTol);
    }
    bad += chunk_bad;
  });
  EXPECT_EQ(bad.load(), 0u);
}

TEST(SoftmaxExp, EdgeCases) {
  EXPECT_EQ(exp_f32(-kInf), 0.0f);
  EXPECT_EQ(exp_f32(0.0f), 1.0f);
  EXPECT_EQ(exp_f32(-0.0f), 1.0f);
  EXPECT_TRUE(std::isnan(exp_f32(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(exp_f32(-100.0f), 0.0f);  // below ln(FLT_MIN): flushed to zero
  EXPECT_NEAR(exp_f32(1.0f), 2.718281828f, 1e-6f);

  // The same edge cases through the batch path, in both block and tail.
  std::vector<float> row(20, 0.0f);
  row[0] = -kInf;
  row[17] = -kInf;
  row[3] = std::numeric_limits<float>::quiet_NaN();
  row[18] = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> out(20);
  const float sum = exp_sub_sum(row.data(), out.data(), 20, 0.0f);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[17], 0.0f);
  EXPECT_EQ(out[1], 1.0f);
  EXPECT_EQ(out[19], 1.0f);
  EXPECT_TRUE(std::isnan(out[3]));
  EXPECT_TRUE(std::isnan(out[18]));
  EXPECT_TRUE(std::isnan(sum));
}

TEST(SoftmaxRow, RaggedRowsSumBitwiseLikeTheirPaddedRows) {
  Rng rng(5);
  for (const std::int64_t n : {1, 5, 15, 17, 31, 33, 47, 100}) {
    ASSERT_NE(n % kSoftmaxLanes, 0);
    const std::int64_t padded =
        (n + kSoftmaxLanes - 1) / kSoftmaxLanes * kSoftmaxLanes;
    std::vector<float> x(static_cast<std::size_t>(padded), -kInf);
    for (std::int64_t j = 0; j < n; ++j) {
      x[static_cast<std::size_t>(j)] =
          3.0f * static_cast<float>(rng.next_uniform()) - 1.5f;
    }
    const float m = row_max(x.data(), n);
    EXPECT_EQ(m, *std::max_element(x.begin(), x.begin() + n));
    EXPECT_EQ(row_max(x.data(), padded), m);

    std::vector<float> out(static_cast<std::size_t>(padded), 7.0f);
    std::vector<float> out_pad(static_cast<std::size_t>(padded));
    const float sum = exp_sub_sum(x.data(), out.data(), n, m);
    const float sum_pad = exp_sub_sum(x.data(), out_pad.data(), padded, m);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(sum),
              std::bit_cast<std::uint32_t>(sum_pad))
        << "n=" << n;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(exp_sub_sum(x.data(), nullptr, n, m)),
              std::bit_cast<std::uint32_t>(sum))
        << "n=" << n;
    double ref = 0.0;
    for (std::int64_t j = 0; j < n; ++j) {
      const auto js = static_cast<std::size_t>(j);
      EXPECT_EQ(out[js], out_pad[js]);
      ref += static_cast<double>(out[js]);
    }
    EXPECT_EQ(out[static_cast<std::size_t>(n)], 7.0f) << "wrote past the row";
    EXPECT_NEAR(sum, ref, 1e-6 * ref);

    // In place gives the same bits as out of place.
    std::vector<float> inplace(x.begin(), x.begin() + n);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(
                  exp_sub_sum(inplace.data(), inplace.data(), n, m)),
              std::bit_cast<std::uint32_t>(sum));
    EXPECT_TRUE(std::equal(inplace.begin(), inplace.end(), out.begin()));
  }
}

TEST(SoftmaxRow, EmptyAndMaskedRows) {
  EXPECT_EQ(row_max(nullptr, 0), -kInf);
  EXPECT_EQ(exp_sub_sum(nullptr, nullptr, 0, 0.0f), 0.0f);
  std::vector<float> masked(19, -kInf);
  EXPECT_EQ(row_max(masked.data(), 19), -kInf);
  EXPECT_EQ(exp_sub_sum(masked.data(), masked.data(), 19, 2.0f), 0.0f);
  EXPECT_TRUE(std::all_of(masked.begin(), masked.end(),
                          [](float v) { return v == 0.0f; }));
}

}  // namespace
}  // namespace burst::tensor
