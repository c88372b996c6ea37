// Seeded violations for the one-param-list rule: three functions spell out
// all six layer parameters; the two that split them stay quiet.
struct Layer {
  int wq, wk, wv, wo, w1, w2;
};

int sum_layer(const Layer& l) {  // all six through `.`: flagged
  return l.wq + l.wk + l.wv + l.wo + l.w1 + l.w2;
}

int sum_layer_ptr(const Layer* l) {  // all six through `->`: flagged
  return l->wq + l->wk + l->wv + l->wo + l->w1 + l->w2;
}

class Visitor {
 public:
  template <typename Fn>
  static void visit(Layer& l, Fn&& fn) {  // a member function: flagged
    fn(l.wq);
    fn(l.wk);
    fn(l.wv);
    fn(l.wo);
    fn(l.w1);
    fn(l.w2);
  }
};

int attention_params(const Layer& l) { return l.wq + l.wk + l.wv + l.wo; }

int ffn_params(const Layer& l) { return l.w1 + l.w2; }
