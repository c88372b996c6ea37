#include "kernels/rope.hpp"

#include <cassert>
#include <cmath>

#include "tensor/workspace.hpp"

namespace burst::kernels {

namespace {

void rotate(tensor::Tensor& x, const IndexMap& positions, float theta_base,
            float sign) {
  assert(x.rank() == 2 && x.cols() % 2 == 0);
  assert(positions.size() == x.rows());
  const std::int64_t d = x.cols();
  // The pair frequencies depend only on the column, so they are computed
  // once per call into borrowed scratch (no heap allocation per call).
  tensor::Workspace& ws = tensor::Workspace::tls();
  tensor::Workspace::Scope scope(ws);
  double* freq = ws.alloc_f64(static_cast<std::size_t>(d / 2));
  for (std::int64_t i = 0; i < d / 2; ++i) {
    freq[i] = std::pow(static_cast<double>(theta_base),
                       -2.0 * static_cast<double>(i) / static_cast<double>(d));
  }
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    const double pos = static_cast<double>(positions.global(r));
    for (std::int64_t i = 0; i < d / 2; ++i) {
      const double angle = sign * pos * freq[i];
      const float c = static_cast<float>(std::cos(angle));
      const float s = static_cast<float>(std::sin(angle));
      const float a = x(r, 2 * i);
      const float b = x(r, 2 * i + 1);
      x(r, 2 * i) = a * c - b * s;
      x(r, 2 * i + 1) = a * s + b * c;
    }
  }
}

}  // namespace

void apply_rope_inplace(tensor::Tensor& x, const IndexMap& positions,
                        float theta_base) {
  rotate(x, positions, theta_base, 1.0f);
}

void apply_rope_inverse_inplace(tensor::Tensor& x, const IndexMap& positions,
                                float theta_base) {
  rotate(x, positions, theta_base, -1.0f);
}

}  // namespace burst::kernels
