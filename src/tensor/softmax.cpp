#include "tensor/softmax.hpp"
// burst-lint: hotpath

#include <algorithm>
#include <limits>

namespace burst::tensor {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();
constexpr std::int64_t kL = kSoftmaxLanes;
static_assert(kL == 16, "reduce_lanes spells out a 16-lane tree");

inline float max_f32(float a, float b) { return select_f32(a < b, b, a); }

// Fixed pairwise tree over the lane accumulators: lane l combines with lane
// l + w for w = kL/2, ..., 1. Each level is its own local array so the
// levels stay alias-free.
template <typename Op>
float reduce_lanes(const float* acc, Op op) {
  float a8[8];
  for (std::int64_t l = 0; l < 8; ++l) {
    a8[l] = op(acc[l], acc[l + 8]);
  }
  float a4[4];
  for (std::int64_t l = 0; l < 4; ++l) {
    a4[l] = op(a8[l], a8[l + 4]);
  }
  return op(op(a4[0], a4[2]), op(a4[1], a4[3]));
}

// One lane-wide block: out[l] = exp(x[l] - m), acc[l] += out[l]. Staging
// through a local array keeps the loop alias-free with a constant trip
// count, so it vectorizes even under -O2's cheapest cost model; the unroll
// pragma stops -O3 from fully unrolling it into scalar code first.
template <bool kWrite>
inline void exp_sum_block(const float* x, float* out, float m, float* acc) {
  float e[kL];
#pragma GCC unroll 1
  for (std::int64_t l = 0; l < kL; ++l) {
    e[l] = exp_f32(x[l] - m);
    acc[l] += e[l];
  }
  if constexpr (kWrite) {
    std::copy(e, e + kL, out);
  }
}

template <bool kWrite>
float exp_sub_sum_impl(const float* x, float* out, std::int64_t n, float m) {
  float acc[kL] = {};
  std::int64_t j = 0;
  for (; j + kL <= n; j += kL) {
    if constexpr (kWrite) {
      exp_sum_block<true>(x + j, out + j, m, acc);
    } else {
      exp_sum_block<false>(x + j, nullptr, m, acc);
    }
  }
  if (j < n) {
    float tail[kL];
    std::fill(tail, tail + kL, kNegInf);
    std::copy(x + j, x + n, tail);
    exp_sum_block<true>(tail, tail, m, acc);
    if constexpr (kWrite) {
      std::copy(tail, tail + (n - j), out + j);
    }
  }
  return reduce_lanes(acc, [](float a, float b) { return a + b; });
}

}  // namespace

float row_max(const float* x, std::int64_t n) {
  float acc[kL];
  std::fill(acc, acc + kL, kNegInf);
  std::int64_t j = 0;
  for (; j + kL <= n; j += kL) {
#pragma GCC unroll 1
    for (std::int64_t l = 0; l < kL; ++l) {
      acc[l] = max_f32(acc[l], x[j + l]);
    }
  }
  for (std::int64_t l = 0; j + l < n; ++l) {
    acc[l] = max_f32(acc[l], x[j + l]);
  }
  return reduce_lanes(acc, max_f32);
}

float exp_sub_sum(const float* x, float* out, std::int64_t n, float m) {
  return out == nullptr ? exp_sub_sum_impl<false>(x, nullptr, n, m)
                        : exp_sub_sum_impl<true>(x, out, n, m);
}

}  // namespace burst::tensor
