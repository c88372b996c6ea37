#include "tensor/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "parallel/thread_pool.hpp"

namespace burst::tensor {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Runs `fn(begin, end)` over `[0, n)`: once on the calling thread when
// n <= kElementwiseChunk, else over kElementwiseChunk-element chunks on the
// global pool.
template <class Fn>
void for_each_chunk(std::int64_t n, const Fn& fn) {
  if (n <= kElementwiseChunk) {
    fn(std::int64_t{0}, n);
    return;
  }
  parallel::parallel_for(
      static_cast<std::size_t>(n), static_cast<std::size_t>(kElementwiseChunk),
      [&fn](std::size_t b, std::size_t e) {
        fn(static_cast<std::int64_t>(b), static_cast<std::int64_t>(e));
      });
}

}  // namespace

void add_inplace(Tensor& y, const Tensor& x) {
  assert(y.numel() == x.numel());
  float* yd = y.data();
  const float* xd = x.data();
  for_each_chunk(y.numel(), [=](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      yd[i] += xd[i];
    }
  });
}

void sub_inplace(Tensor& y, const Tensor& x) {
  assert(y.numel() == x.numel());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    y.data()[i] -= x.data()[i];
  }
}

void scale_inplace(Tensor& y, float s) {
  float* yd = y.data();
  for_each_chunk(y.numel(), [=](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      yd[i] *= s;
    }
  });
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  assert(y.numel() == x.numel());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    y.data()[i] += alpha * x.data()[i];
  }
}

Tensor add(const Tensor& a, const Tensor& b) {
  assert(a.numel() == b.numel());
  Tensor out = Tensor::uninitialized(a.shape());
  float* od = out.data();
  const float* ad = a.data();
  const float* bd = b.data();
  for_each_chunk(a.numel(), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      od[i] = ad[i] + bd[i];
    }
  });
  return out;
}

Tensor sum_in_order(const std::vector<const Tensor*>& parts) {
  assert(!parts.empty());
  Tensor out = Tensor::uninitialized(parts[0]->shape());
  float* od = out.data();
  // Chunk by chunk: copy the first part, then add the rest in order while
  // the chunk is still in cache.
  for_each_chunk(out.numel(), [&](std::int64_t lo, std::int64_t hi) {
    std::copy(parts[0]->data() + lo, parts[0]->data() + hi, od + lo);
    for (std::size_t j = 1; j < parts.size(); ++j) {
      assert(parts[j]->numel() == out.numel());
      const float* pd = parts[j]->data();
      for (std::int64_t i = lo; i < hi; ++i) {
        od[i] += pd[i];
      }
    }
  });
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  sub_inplace(out, b);
  return out;
}

Tensor rowsum_product(const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out(a.rows());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::int64_t j = 0; j < a.cols(); ++j) {
      acc += static_cast<double>(a(i, j)) * static_cast<double>(b(i, j));
    }
    out[i] = static_cast<float>(acc);
  }
  return out;
}

Tensor row_lse(const Tensor& s) {
  assert(s.rank() == 2);
  Tensor out(s.rows());
  for (std::int64_t i = 0; i < s.rows(); ++i) {
    float mx = kNegInf;
    for (std::int64_t j = 0; j < s.cols(); ++j) {
      mx = std::max(mx, s(i, j));
    }
    if (mx == kNegInf) {
      out[i] = kNegInf;  // fully-masked row
      continue;
    }
    double acc = 0.0;
    for (std::int64_t j = 0; j < s.cols(); ++j) {
      acc += std::exp(static_cast<double>(s(i, j) - mx));
    }
    out[i] = mx + static_cast<float>(std::log(acc));
  }
  return out;
}

void exp_sub_row_inplace(Tensor& s, const Tensor& lse) {
  assert(s.rank() == 2 && lse.numel() == s.rows());
  for (std::int64_t i = 0; i < s.rows(); ++i) {
    const float l = lse[i];
    for (std::int64_t j = 0; j < s.cols(); ++j) {
      // exp(-inf - (-inf)) must be 0, not NaN: a fully-masked row
      // contributes nothing.
      s(i, j) = (l == kNegInf) ? 0.0f : std::exp(s(i, j) - l);
    }
  }
}

void softmax_rows_inplace(Tensor& s) {
  Tensor lse = row_lse(s);
  exp_sub_row_inplace(s, lse);
}

void merge_online_softmax(Tensor& o_acc, Tensor& lse_acc, const Tensor& o_part,
                          const Tensor& lse_part) {
  assert(o_acc.rows() == o_part.rows() && o_acc.cols() == o_part.cols());
  assert(lse_acc.numel() == o_acc.rows() && lse_part.numel() == o_acc.rows());
  for (std::int64_t i = 0; i < o_acc.rows(); ++i) {
    const float la = lse_acc[i];
    const float lp = lse_part[i];
    if (lp == kNegInf) {
      continue;  // partition fully masked for this row
    }
    if (la == kNegInf) {
      lse_acc[i] = lp;
      for (std::int64_t j = 0; j < o_acc.cols(); ++j) {
        o_acc(i, j) = o_part(i, j);
      }
      continue;
    }
    const float lmax = std::max(la, lp);
    const float wa = std::exp(la - lmax);
    const float wp = std::exp(lp - lmax);
    const float lnew = lmax + std::log(wa + wp);
    const float ca = std::exp(la - lnew);
    const float cp = std::exp(lp - lnew);
    lse_acc[i] = lnew;
    for (std::int64_t j = 0; j < o_acc.cols(); ++j) {
      o_acc(i, j) = ca * o_acc(i, j) + cp * o_part(i, j);
    }
  }
}

Tensor transpose(const Tensor& a) {
  assert(a.rank() == 2);
  Tensor out(a.cols(), a.rows());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < a.cols(); ++j) {
      out(j, i) = a(i, j);
    }
  }
  return out;
}

Tensor copy_cols(const Tensor& a, std::int64_t col_begin,
                 std::int64_t num_cols) {
  assert(a.rank() == 2 && col_begin >= 0 && col_begin + num_cols <= a.cols());
  Tensor out(a.rows(), num_cols);
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < num_cols; ++j) {
      out(i, j) = a(i, col_begin + j);
    }
  }
  return out;
}

void copy_cols_into(const Tensor& a, std::int64_t col_begin, Tensor& dst) {
  assert(a.rank() == 2 && dst.rank() == 2 && dst.rows() == a.rows());
  assert(col_begin >= 0 && col_begin + dst.cols() <= a.cols());
  const std::int64_t num_cols = dst.cols();
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < num_cols; ++j) {
      dst(i, j) = a(i, col_begin + j);
    }
  }
}

void add_cols_inplace(Tensor& dst, std::int64_t col_begin, const Tensor& src) {
  assert(dst.rows() == src.rows() && col_begin + src.cols() <= dst.cols());
  for (std::int64_t i = 0; i < src.rows(); ++i) {
    for (std::int64_t j = 0; j < src.cols(); ++j) {
      dst(i, col_begin + j) += src(i, j);
    }
  }
}

void set_cols(Tensor& dst, std::int64_t col_begin, const Tensor& src) {
  assert(dst.rows() == src.rows() && col_begin + src.cols() <= dst.cols());
  for (std::int64_t i = 0; i < src.rows(); ++i) {
    for (std::int64_t j = 0; j < src.cols(); ++j) {
      dst(i, col_begin + j) = src(i, j);
    }
  }
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  assert(!parts.empty());
  std::int64_t rows = 0;
  const std::int64_t cols = parts.front().cols();
  for (const auto& p : parts) {
    assert(p.cols() == cols);
    rows += p.rows();
  }
  Tensor out(rows, cols);
  std::int64_t at = 0;
  for (const auto& p : parts) {
    out.set_rows(at, p);
    at += p.rows();
  }
  return out;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  assert(a.numel() == b.numel());
  float mx = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    mx = std::max(mx, std::fabs(a.data()[i] - b.data()[i]));
  }
  return mx;
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.numel() != b.numel()) {
    return false;
  }
  float bmax = 0.0f;
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    bmax = std::max(bmax, std::fabs(b.data()[i]));
  }
  return max_abs_diff(a, b) <= atol + rtol * bmax;
}

float norm(const Tensor& a) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    acc += static_cast<double>(a.data()[i]) * a.data()[i];
  }
  return static_cast<float>(std::sqrt(acc));
}

void round_bf16_inplace(Tensor& t) {
  float* td = t.data();
  for_each_chunk(t.numel(), [=](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      std::uint32_t bits;
      static_assert(sizeof(bits) == sizeof(float));
      std::memcpy(&bits, &td[i], sizeof(bits));
      // Round-to-nearest-even into the upper 16 bits.
      const std::uint32_t rounding = 0x7FFFu + ((bits >> 16) & 1u);
      bits = (bits + rounding) & 0xFFFF0000u;
      std::memcpy(&td[i], &bits, sizeof(bits));
    }
  });
}

Tensor relu(const Tensor& x) {
  Tensor out = Tensor::uninitialized(x.shape());
  float* od = out.data();
  const float* xd = x.data();
  for_each_chunk(x.numel(), [=](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      od[i] = std::max(xd[i], 0.0f);
    }
  });
  return out;
}

Tensor relu_backward(const Tensor& dy, const Tensor& x) {
  assert(dy.numel() == x.numel());
  Tensor dx = Tensor::uninitialized(dy.shape());
  float* dxd = dx.data();
  const float* dyd = dy.data();
  const float* xd = x.data();
  // A select, not a branch: the signs of x are random, so a branch would
  // mispredict about every other element.
  for_each_chunk(dy.numel(), [=](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      dxd[i] = xd[i] <= 0.0f ? 0.0f : dyd[i];
    }
  });
  return dx;
}

}  // namespace burst::tensor
