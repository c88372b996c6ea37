// Clean for one-param-list: the six layer parameters are split across
// functions, named only in comments and strings, or walked by the visitor.
// A comment naming l.wq, l.wk, l.wv, l.wo, l.w1 and l.w2 is not code.
struct Layer {
  int wq, wk, wv, wo, w1, w2, w1x, wo_;
};

template <typename Fn>
void for_each_layer_param(Fn&& fn, Layer& l);

int attention_params(const Layer& l) { return l.wq + l.wk + l.wv + l.wo; }

int ffn_params(const Layer& l) { return l.w1 + l.w2; }

const char* describe() { return ".wq .wk .wv .wo .w1 .w2"; }

int lookalikes(const Layer& l, const int* wq) {
  // A bare `wq`, `.w1x` and `.wo_` are other names.
  return *wq + l.wk + l.wv + l.wo_ + l.w1x + l.w2;
}

int total(Layer& l) {
  int sum = 0;
  for_each_layer_param([&sum](int p) { sum += p; }, l);
  return sum;
}
