#include "kernels/rope.hpp"

#include <cassert>
#include <cmath>

#include "parallel/thread_pool.hpp"

namespace burst::kernels {

namespace {

// Rows of the table one parallel_for chunk fills.
constexpr std::size_t kTableRowsPerChunk = 64;

void rotate(tensor::Tensor& x, const RopeTable& table, std::int64_t row0,
            float sign) {
  assert(x.rank() == 2 && x.cols() == table.head_dim());
  assert(row0 >= 0 && row0 + x.rows() <= table.rows());
  const std::int64_t pairs = x.cols() / 2;
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    const float* cs = table.cos_row(row0 + r);
    const float* sn = table.sin_row(row0 + r);
    float* row = x.data() + r * x.cols();
    for (std::int64_t i = 0; i < pairs; ++i) {
      const float c = cs[i];
      const float s = sign * sn[i];
      const float a = row[2 * i];
      const float b = row[2 * i + 1];
      row[2 * i] = a * c - b * s;
      row[2 * i + 1] = a * s + b * c;
    }
  }
}

}  // namespace

RopeTable::RopeTable(const IndexMap& positions, std::int64_t head_dim,
                     float theta_base)
    : rows_(positions.size()), pairs_(head_dim / 2) {
  assert(head_dim % 2 == 0);
  const auto entries = static_cast<std::size_t>(rows_ * pairs_);
  cos_.resize(entries);
  sin_.resize(entries);
  // The pair frequencies depend only on the column.
  std::vector<double> freq(static_cast<std::size_t>(pairs_));
  for (std::int64_t i = 0; i < pairs_; ++i) {
    freq[static_cast<std::size_t>(i)] = std::pow(
        static_cast<double>(theta_base),
        -2.0 * static_cast<double>(i) / static_cast<double>(head_dim));
  }
  parallel::parallel_for(
      0, static_cast<std::size_t>(rows_), kTableRowsPerChunk,
      [&](std::size_t r0, std::size_t r1) {
        for (auto r = static_cast<std::int64_t>(r0);
             r < static_cast<std::int64_t>(r1); ++r) {
          const double pos = static_cast<double>(positions.global(r));
          float* c = cos_.data() + r * pairs_;
          float* s = sin_.data() + r * pairs_;
          for (std::int64_t i = 0; i < pairs_; ++i) {
            const double angle = pos * freq[static_cast<std::size_t>(i)];
            c[i] = static_cast<float>(std::cos(angle));
            s[i] = static_cast<float>(std::sin(angle));
          }
        }
      });
}

void apply_rope_inplace(tensor::Tensor& x, const RopeTable& table,
                        std::int64_t row0) {
  rotate(x, table, row0, 1.0f);
}

void apply_rope_inverse_inplace(tensor::Tensor& x, const RopeTable& table,
                                std::int64_t row0) {
  rotate(x, table, row0, -1.0f);
}

void apply_rope_inplace(tensor::Tensor& x, const IndexMap& positions,
                        float theta_base) {
  assert(positions.size() == x.rows());
  apply_rope_inplace(x, RopeTable(positions, x.cols(), theta_base));
}

void apply_rope_inverse_inplace(tensor::Tensor& x, const IndexMap& positions,
                                float theta_base) {
  assert(positions.size() == x.rows());
  apply_rope_inverse_inplace(x, RopeTable(positions, x.cols(), theta_base));
}

}  // namespace burst::kernels
