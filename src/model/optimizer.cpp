#include "model/optimizer.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

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

void AdamOptimizer::update_tensor(tensor::Tensor& w, const tensor::Tensor& g,
                                  std::size_t state_offset) {
  assert(w.numel() == g.numel());
  const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    const std::size_t s = state_offset + static_cast<std::size_t>(i);
    const float grad = g.data()[i];
    m_[s] = kBeta1 * m_[s] + (1.0f - kBeta1) * grad;
    v_[s] = kBeta2 * v_[s] + (1.0f - kBeta2) * grad * grad;
    const float mhat = m_[s] / bc1;
    const float vhat = v_[s] / bc2;
    w.data()[i] -= cfg_.lr * mhat / (std::sqrt(vhat) + kEps);
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
  std::size_t offset = 0;
  for_each_param(
      [&](tensor::Tensor& wt, const tensor::Tensor& gt) {
        update_tensor(wt, gt, offset);
        offset += static_cast<std::size_t>(wt.numel());
      },
      w, g);
  assert(offset == static_cast<std::size_t>(num_params_));
}

}  // namespace burst::model
