#include "model/quant_weights.hpp"

#include <cassert>

namespace burst::model {

using tensor::PackedB;
using tensor::Trans;

PackedWeights PackedWeights::pack(const ModelConfig& cfg,
                                  const ModelWeights& w) {
  PackedWeights q;
  q.spec = cfg.quant.weights;
  const tensor::DType dt = q.quantized() ? q.spec : tensor::DType::kF32;
  q.layers.reserve(w.layers.size());
  for (const LayerWeights& lw : w.layers) {
    Layer l;
    // Every projection is consumed as x @ W, so op(B) = W (no transpose).
    for_each_layer_param(
        [dt](PackedB& p, const tensor::Tensor& t) {
          p = PackedB::pack(t.view(), Trans::No, dt);
        },
        l, lw);
    q.layers.push_back(std::move(l));
  }
  // The head is consumed as h @ W_head^T: resolving the transpose at pack
  // time also groups quantization blocks along d per vocab word.
  q.w_head_t = PackedB::pack(w.w_head.view(), Trans::Yes, dt);
  assert(q.w_head_t.n() == cfg.vocab && q.w_head_t.k() == cfg.d_model);
  (void)cfg;
  return q;
}

std::uint64_t PackedWeights::model_bytes() const {
  std::uint64_t total = w_head_t.model_bytes();
  for (const Layer& l : layers) {
    for_each_layer_param(
        [&total](const PackedB& p) { total += p.model_bytes(); }, l);
  }
  return total;
}

}  // namespace burst::model
