#include "model/optimizer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace burst::model {

namespace {

// Adam's moment decay rates and denominator guard (the usual defaults).
constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

}  // namespace

AdamOptimizer::AdamOptimizer(const ModelWeights& weights,
                             const AdamConfig& cfg, sim::MemoryTracker* mem)
    : cfg_(cfg), num_params_(param_count(weights)), mem_(mem) {
  m_.assign(static_cast<std::size_t>(num_params_), 0.0f);
  v_.assign(static_cast<std::size_t>(num_params_), 0.0f);
  if (mem_ != nullptr && !cfg_.offload) {
    // fp32 master + m + v = 12 bytes per parameter on device.
    charged_ = static_cast<std::uint64_t>(num_params_) * 12;
    mem_->alloc(charged_, "adam state");
  }
}

AdamOptimizer::~AdamOptimizer() {
  if (charged_ > 0) {
    mem_->free(charged_);
  }
}

AdamState AdamOptimizer::export_state() const { return {t_, m_, v_}; }

void AdamOptimizer::restore_state(const AdamState& s) {
  if (s.m.size() != m_.size() || s.v.size() != v_.size()) {
    throw std::invalid_argument(
        "AdamOptimizer::restore_state: state size mismatch (snapshot from a "
        "different model?)");
  }
  t_ = s.t;
  m_ = s.m;
  v_ = s.v;
}

void AdamOptimizer::step(ModelWeights& w, const ModelGrads& g) {
  ++t_;
  const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  // Every parameter tensor, cut into pieces of at most kElementwiseChunk
  // elements at fixed boundaries: one writer per element, whatever the pool.
  struct Piece {
    float* w;
    const float* g;
    std::size_t state;
    std::int64_t n;
  };
  std::vector<Piece> pieces;
  std::size_t offset = 0;
  for_each_param(
      [&](tensor::Tensor& wt, const tensor::Tensor& gt) {
        assert(wt.numel() == gt.numel());
        for (std::int64_t b = 0; b < wt.numel();
             b += tensor::kElementwiseChunk) {
          pieces.push_back({wt.data() + b, gt.data() + b,
                            offset + static_cast<std::size_t>(b),
                            std::min(tensor::kElementwiseChunk,
                                     wt.numel() - b)});
        }
        offset += static_cast<std::size_t>(wt.numel());
      },
      w, g);
  assert(offset == static_cast<std::size_t>(num_params_));
  const float lr = cfg_.lr;
  const auto update = [&](std::size_t p0, std::size_t p1) {
    for (std::size_t p = p0; p < p1; ++p) {
      const Piece& pc = pieces[p];
      float* m = m_.data() + pc.state;
      float* v = v_.data() + pc.state;
      for (std::int64_t i = 0; i < pc.n; ++i) {
        const float grad = pc.g[i];
        m[i] = kBeta1 * m[i] + (1.0f - kBeta1) * grad;
        v[i] = kBeta2 * v[i] + (1.0f - kBeta2) * grad * grad;
        const float mhat = m[i] / bc1;
        const float vhat = v[i] / bc2;
        pc.w[i] -= lr * mhat / (std::sqrt(vhat) + kEps);
      }
    }
  };
  // A model no larger than one chunk stays on the calling thread.
  if (num_params_ <= tensor::kElementwiseChunk) {
    update(0, pieces.size());
  } else {
    parallel::parallel_for(0, pieces.size(), 1, update);
  }
}

}  // namespace burst::model
