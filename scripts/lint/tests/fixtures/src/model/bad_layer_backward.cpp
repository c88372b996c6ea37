// Seeded violations for the one-layer-backward rule: a second layer
// backward outside model/dist_model.cpp calls the block's backward halves
// (declared in model/block.hpp) qualified, unqualified, and with the call
// split before its '('.
namespace burst::model {
struct LayerWeights;
struct LayerGrads;
struct BlockActs;
struct Tensor;
}  // namespace burst::model

using burst::model::block_backward_ffn;

void second_layer_backward(const burst::model::LayerWeights& w,
                           const burst::model::BlockActs& a,
                           const burst::model::Tensor& x,
                           const burst::model::Tensor& d_y,
                           burst::model::LayerGrads& g) {
  auto ffn = block_backward_ffn(w, a, d_y, g);  // flagged
  auto again = burst::model::block_backward_ffn(w, a, d_y, g);  // flagged
  burst::model::block_backward_qkv  // flagged
      (w, x, ffn.d_h, again.d_attn, again.d_attn, again.d_attn, g);
}
