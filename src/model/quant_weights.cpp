#include "model/quant_weights.hpp"

#include <cassert>

namespace burst::model {

using tensor::PackedB;
using tensor::Trans;

QuantizedWeights QuantizedWeights::pack(const ModelConfig& cfg,
                                        const ModelWeights& w) {
  QuantizedWeights q;
  q.dtype = cfg.quant.weights;
  q.layers.reserve(w.layers.size());
  for (const LayerWeights& lw : w.layers) {
    Layer l;
    // Every projection is consumed as x @ W, so op(B) = W (no transpose).
    l.wq = PackedB::pack(lw.wq.view(), Trans::No, q.dtype);
    l.wk = PackedB::pack(lw.wk.view(), Trans::No, q.dtype);
    l.wv = PackedB::pack(lw.wv.view(), Trans::No, q.dtype);
    l.wo = PackedB::pack(lw.wo.view(), Trans::No, q.dtype);
    l.w1 = PackedB::pack(lw.w1.view(), Trans::No, q.dtype);
    l.w2 = PackedB::pack(lw.w2.view(), Trans::No, q.dtype);
    q.layers.push_back(std::move(l));
  }
  // The head is consumed as h @ W_head^T: resolving the transpose at pack
  // time also groups quantization blocks along d per vocab word.
  q.w_head_t = PackedB::pack(w.w_head.view(), Trans::Yes, q.dtype);
  assert(q.w_head_t.n() == cfg.vocab && q.w_head_t.k() == cfg.d_model);
  (void)cfg;
  return q;
}

std::uint64_t QuantizedWeights::model_bytes() const {
  std::uint64_t total = w_head_t.model_bytes();
  for (const Layer& l : layers) {
    total += l.wq.model_bytes() + l.wk.model_bytes() + l.wv.model_bytes() +
             l.wo.model_bytes() + l.w1.model_bytes() + l.w2.model_bytes();
  }
  return total;
}

}  // namespace burst::model
