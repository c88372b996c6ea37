// Clean for one-layer-backward: the backward halves named only in comments
// and strings, lookalike names, and a reference that is not a call.
// block_backward_ffn(w, acts, d_y, g) in a comment is not code.
namespace burst::model {
int my_block_backward_ffn(int x) { return x; }
int block_backward_qkv_bytes(int x) { return 2 * x; }
}  // namespace burst::model

const char* describe() { return "block_backward_ffn(w, acts, d_y, g)"; }

int lookalikes() {
  return burst::model::my_block_backward_ffn(1) +
         burst::model::block_backward_qkv_bytes(2);
}
