// The one softmax primitive shared by the attention kernels and the fused
// LM head: a branch-free float `exp` and fixed-lane-order row reductions.
//
// exp_f32 is Cephes-style: round x*log2(e) to the nearest integer n with the
// 1.5*2^23 add/subtract (no std::floor, which blocks auto-vectorization),
// reduce r = x - n*ln2 in two parts, evaluate a degree-6 polynomial and
// scale by 2^n built directly in the exponent bits. Every step is a plain
// float operation or a select, so loops over it vectorize at -O2 and -O3
// without -ffast-math or intrinsics. Max relative error on [-87, 88] is
// 8.5e-8 (tests/test_softmax.cpp sweeps every float there against a 2e-7
// bound). exp(-inf) == 0, exp(0) == 1 and NaN propagates; inputs below
// ln(FLT_MIN) return 0.
//
// The row reductions keep kSoftmaxLanes independent float accumulators
// (lane l owns elements j with j % kSoftmaxLanes == l) and combine them in a
// fixed pairwise tree, so the result does not depend on whether or how the
// compiler vectorized the loop. exp_sub_sum runs a ragged tail through the
// same block code padded with -inf, so a row of any length sums
// bitwise-equal to that row padded with -inf to a lane multiple.
#pragma once

#include <bit>
#include <cstdint>

namespace burst::tensor {

inline constexpr std::int64_t kSoftmaxLanes = 16;

/// `c ? a : b` through bit masks. A ?: on floats can stay a branch once the
/// compiler fully unrolls a short loop, which then no longer vectorizes;
/// the mask form has no control flow to begin with.
inline float select_f32(bool c, float a, float b) {
  const std::uint32_t m = 0u - static_cast<std::uint32_t>(c);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & m) |
                              (std::bit_cast<std::uint32_t>(b) & ~m));
}

/// Branch-free float exp (see file comment for accuracy and edge cases).
inline float exp_f32(float x) {
  constexpr float kLo = -87.3365478515625f;  // ~ln(FLT_MIN)
  constexpr float kHi = 88.3762626647949f;   // ~ln(FLT_MAX)
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2Hi = 0.693359375f;  // ln2 split: exact high part
  constexpr float kLn2Lo = -2.12194440e-4f;
  constexpr float kRound = 12582912.0f;  // 1.5 * 2^23
  // Comparisons are false for NaN, so NaN flows through the clamp.
  float xc = select_f32(x > kHi, kHi, x);
  xc = select_f32(x < kLo, kLo, xc);
  // t's low mantissa bits hold n = round(xc * log2e) as an integer offset.
  const float t = xc * kLog2e + kRound;
  const float n = t - kRound;
  float r = xc - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * (r * r) + r + 1.0f;
  const std::uint32_t nbits =
      std::bit_cast<std::uint32_t>(t) - std::bit_cast<std::uint32_t>(kRound);
  const float scale = std::bit_cast<float>((nbits + 127u) << 23);
  return select_f32(x < kLo, 0.0f, p * scale);
}

/// max_j x[j] over n >= 0 elements (-inf for an empty row).
float row_max(const float* x, std::int64_t n);

/// Sets out[j] = exp_f32(x[j] - m) and returns sum_j out[j], accumulated in
/// float in the fixed lane order above. `out` may alias `x`, or be nullptr
/// to only compute the sum. A row of -inf (with any finite m) gives zeros.
float exp_sub_sum(const float* x, float* out, std::int64_t n, float m);

}  // namespace burst::tensor
