#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/rng.hpp"

namespace burst::tensor {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(Ops, AddSubScaleAxpy) {
  Tensor a = Tensor::full(2, 2, 1.0f);
  Tensor b = Tensor::full(2, 2, 2.0f);
  add_inplace(a, b);
  EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
  sub_inplace(a, b);
  EXPECT_FLOAT_EQ(a(1, 1), 1.0f);
  scale_inplace(a, 4.0f);
  EXPECT_FLOAT_EQ(a(0, 1), 4.0f);
  axpy(0.5f, b, a);
  EXPECT_FLOAT_EQ(a(0, 0), 5.0f);
}

TEST(Ops, RowsumProductMatchesManual) {
  Tensor a(2, 3);
  Tensor b(2, 3);
  for (std::int64_t i = 0; i < 6; ++i) {
    a.data()[i] = static_cast<float>(i + 1);
    b.data()[i] = static_cast<float>(2 * i);
  }
  Tensor d = rowsum_product(a, b);
  // row 0: 1*0 + 2*2 + 3*4 = 16; row 1: 4*6 + 5*8 + 6*10 = 124.
  EXPECT_FLOAT_EQ(d[0], 16.0f);
  EXPECT_FLOAT_EQ(d[1], 124.0f);
}

TEST(Ops, RowLseStableForLargeValues) {
  Tensor s(1, 3);
  s(0, 0) = 1000.0f;
  s(0, 1) = 1000.0f;
  s(0, 2) = 1000.0f;
  Tensor lse = row_lse(s);
  EXPECT_NEAR(lse[0], 1000.0f + std::log(3.0f), 1e-4);
}

TEST(Ops, RowLseFullyMaskedRowIsNegInf) {
  Tensor s = Tensor::full(1, 4, -kInf);
  Tensor lse = row_lse(s);
  EXPECT_EQ(lse[0], -kInf);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(7);
  Tensor s = rng.gaussian(5, 9, 3.0f);
  softmax_rows_inplace(s);
  for (std::int64_t i = 0; i < s.rows(); ++i) {
    double total = 0.0;
    for (std::int64_t j = 0; j < s.cols(); ++j) {
      EXPECT_GE(s(i, j), 0.0f);
      total += s(i, j);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(Ops, ExpSubRowHandlesMaskedRows) {
  Tensor s = Tensor::full(2, 2, -kInf);
  s(0, 0) = 0.0f;
  Tensor lse = row_lse(s);
  exp_sub_row_inplace(s, lse);
  EXPECT_FLOAT_EQ(s(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(s(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(s(1, 0), 0.0f);  // -inf row: exp must yield 0, not NaN
  EXPECT_FLOAT_EQ(s(1, 1), 0.0f);
}

// The core invariant behind RingAttention/BurstAttention forward: merging
// partition-wise softmax results online equals softmax over the whole row.
TEST(Ops, OnlineSoftmaxMergeEqualsGlobalSoftmax) {
  Rng rng(13);
  const std::int64_t n = 6;
  const std::int64_t d = 4;
  const std::int64_t parts = 3;
  const std::int64_t cols_per_part = 5;
  // Build a full score matrix and value matrix, compute reference softmax@V.
  Tensor s = rng.gaussian(n, parts * cols_per_part, 2.0f);
  Tensor v = rng.gaussian(parts * cols_per_part, d, 1.0f);
  Tensor p = s;
  softmax_rows_inplace(p);
  Tensor ref = Tensor::zeros(n, d);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t k = 0; k < p.cols(); ++k) {
      for (std::int64_t j = 0; j < d; ++j) {
        ref(i, j) += p(i, k) * v(k, j);
      }
    }
  }
  // Now merge per-partition (unnormalized softmax, LSE) results online.
  Tensor o_acc = Tensor::zeros(n, d);
  Tensor lse_vec(n);
  lse_vec.fill(-kInf);
  for (std::int64_t part = 0; part < parts; ++part) {
    Tensor s_part(n, cols_per_part);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t c = 0; c < cols_per_part; ++c) {
        s_part(i, c) = s(i, part * cols_per_part + c);
      }
    }
    Tensor lse_part = row_lse(s_part);
    exp_sub_row_inplace(s_part, lse_part);
    Tensor o_part = Tensor::zeros(n, d);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t c = 0; c < cols_per_part; ++c) {
        for (std::int64_t j = 0; j < d; ++j) {
          o_part(i, j) += s_part(i, c) * v(part * cols_per_part + c, j);
        }
      }
    }
    merge_online_softmax(o_acc, lse_vec, o_part, lse_part);
  }
  EXPECT_LT(max_abs_diff(o_acc, ref), 1e-5f);
}

TEST(Ops, OnlineMergeOrderIndependent) {
  Rng rng(17);
  Tensor o1 = rng.gaussian(4, 3, 1.0f);
  Tensor o2 = rng.gaussian(4, 3, 1.0f);
  Tensor l1 = rng.gaussian(static_cast<std::int64_t>(4), 1.0f);
  Tensor l2 = rng.gaussian(static_cast<std::int64_t>(4), 1.0f);

  Tensor oa = o1;
  Tensor la = l1;
  merge_online_softmax(oa, la, o2, l2);

  Tensor ob = o2;
  Tensor lb = l2;
  merge_online_softmax(ob, lb, o1, l1);

  EXPECT_LT(max_abs_diff(oa, ob), 1e-5f);
  EXPECT_LT(max_abs_diff(la, lb), 1e-5f);
}

TEST(Ops, TransposeRoundTrip) {
  Rng rng(3);
  Tensor a = rng.gaussian(3, 5, 1.0f);
  Tensor att = transpose(transpose(a));
  EXPECT_FLOAT_EQ(max_abs_diff(a, att), 0.0f);
}

TEST(Ops, ConcatRows) {
  Tensor a = Tensor::full(1, 2, 1.0f);
  Tensor b = Tensor::full(2, 2, 2.0f);
  Tensor c = concat_rows({a, b});
  EXPECT_EQ(c.rows(), 3);
  EXPECT_FLOAT_EQ(c(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c(2, 1), 2.0f);
}

TEST(Ops, AllcloseRespectsTolerance) {
  Tensor a = Tensor::full(2, 2, 1.0f);
  Tensor b = Tensor::full(2, 2, 1.0f + 1e-7f);
  EXPECT_TRUE(allclose(a, b));
  Tensor c = Tensor::full(2, 2, 1.1f);
  EXPECT_FALSE(allclose(a, c));
}

TEST(Ops, ReluAndBackward) {
  Tensor x(1, 4);
  x(0, 0) = -1.0f;
  x(0, 1) = 0.0f;
  x(0, 2) = 2.0f;
  x(0, 3) = -3.0f;
  Tensor y = relu(x);
  EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 2), 2.0f);
  Tensor dy = Tensor::full(1, 4, 1.0f);
  Tensor dx = relu_backward(dy, x);
  EXPECT_FLOAT_EQ(dx(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 1), 0.0f);  // gradient 0 at x == 0
  EXPECT_FLOAT_EQ(dx(0, 2), 1.0f);
}

// The select must give the bits of the old copy-then-zero formulation
// (dx = dy, then dx[i] = 0 where x[i] <= 0) on every special value: a NaN
// in x passes dy through, -0 in x zeroes it, and a NaN in dy survives only
// where x > 0.
TEST(Ops, ReluBackwardEdgeCases) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> values = {nan,  kInf, -kInf,   0.0f, -0.0f,
                                     1.0f, -1.0f, denorm, -denorm};
  const auto n = static_cast<std::int64_t>(values.size());
  Tensor x(n, n);
  Tensor dy(n, n);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      x(i, j) = values[static_cast<std::size_t>(i)];
      dy(i, j) = values[static_cast<std::size_t>(j)];
    }
  }
  Tensor want = dy;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    if (x.data()[i] <= 0.0f) {
      want.data()[i] = 0.0f;
    }
  }
  const Tensor got = relu_backward(dy, x);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_EQ(std::memcmp(got.data() + i, want.data() + i, sizeof(float)), 0)
        << "x = " << x.data()[i] << ", dy = " << dy.data()[i];
  }
}

TEST(Ops, NormMatchesManual) {
  Tensor a(1, 2);
  a(0, 0) = 3.0f;
  a(0, 1) = 4.0f;
  EXPECT_FLOAT_EQ(norm(a), 5.0f);
}

}  // namespace
}  // namespace burst::tensor
