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
    l.wq = PackedB::pack(lw.wq.view(), Trans::No, dt);
    l.wk = PackedB::pack(lw.wk.view(), Trans::No, dt);
    l.wv = PackedB::pack(lw.wv.view(), Trans::No, dt);
    l.wo = PackedB::pack(lw.wo.view(), Trans::No, dt);
    l.w1 = PackedB::pack(lw.w1.view(), Trans::No, dt);
    l.w2 = PackedB::pack(lw.w2.view(), Trans::No, dt);
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
    total += l.wq.model_bytes() + l.wk.model_bytes() + l.wv.model_bytes() +
             l.wo.model_bytes() + l.w1.model_bytes() + l.w2.model_bytes();
  }
  return total;
}

}  // namespace burst::model
