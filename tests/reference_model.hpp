// A test-only reference training step that shares none of the model's
// attention or LM-head kernels: attention runs through the naive
// reference_attention_forward/backward (S and P materialized), the LM head
// through naive_lm_head_loss, and the block (Eq. 2-3: H = ATTN(X) W_o + X,
// Y = relu(H W_1) W_2 + H) and its backward are written out here with plain
// tensor ops. The oracle the one-rank step and the distributed step are
// checked against.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/index_map.hpp"
#include "kernels/lm_head.hpp"
#include "kernels/mask.hpp"
#include "kernels/reference_attention.hpp"
#include "kernels/rope.hpp"
#include "model/config.hpp"
#include "model/transformer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace burst::model::testing {

struct ReferenceLayer {
  tensor::Tensor x, attn, h, u_pre, u;
  std::vector<tensor::Tensor> q, k, v;  // per head / per K/V head, rotated
  std::vector<kernels::RefAttnForward> fwd;
};

/// Loss and gradients of next-token prediction over `tokens` (N+1
/// float-encoded ids).
inline TrainStepResult reference_train_step(const ModelConfig& cfg,
                                            const ModelWeights& w,
                                            const tensor::Tensor& tokens,
                                            const kernels::MaskSpec& mask) {
  using tensor::Tensor;
  const std::int64_t n = tokens.numel() - 1;
  const std::int64_t dh = cfg.head_dim();
  const std::int64_t d = cfg.d_model;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const kernels::IndexMap map = kernels::IndexMap::range(0, n);
  std::vector<std::int64_t> ids(static_cast<std::size_t>(n + 1));
  for (std::int64_t i = 0; i <= n; ++i) {
    ids[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(tokens[i]);
  }
  const auto rotated = [&](const Tensor& all, std::int64_t head) {
    Tensor t = tensor::copy_cols(all, head * dh, dh);
    if (cfg.use_rope) {
      kernels::apply_rope_inplace(t, map);
    }
    return t;
  };

  Tensor x(n, d);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < d; ++c) {
      x(i, c) = w.w_embed(ids[static_cast<std::size_t>(i)], c);
    }
  }
  std::vector<ReferenceLayer> layers;
  for (const LayerWeights& lw : w.layers) {
    ReferenceLayer r;
    r.x = x;
    const Tensor q_all = tensor::matmul(x, lw.wq);
    const Tensor k_all = tensor::matmul(x, lw.wk);
    const Tensor v_all = tensor::matmul(x, lw.wv);
    for (std::int64_t kvh = 0; kvh < cfg.num_kv_heads(); ++kvh) {
      r.k.push_back(rotated(k_all, kvh));
      r.v.push_back(tensor::copy_cols(v_all, kvh * dh, dh));
    }
    r.attn = Tensor(n, d);
    for (std::int64_t h = 0; h < cfg.heads; ++h) {
      const auto kvh = static_cast<std::size_t>(h / cfg.group_size());
      r.q.push_back(rotated(q_all, h));
      r.fwd.push_back(kernels::reference_attention_forward(
          r.q.back(), map, r.k[kvh], r.v[kvh], map, mask, scale));
      tensor::set_cols(r.attn, h * dh, r.fwd.back().o);
    }
    r.h = tensor::add(tensor::matmul(r.attn, lw.wo), x);
    r.u_pre = tensor::matmul(r.h, lw.w1);
    r.u = tensor::relu(r.u_pre);
    x = tensor::add(tensor::matmul(r.u, lw.w2), r.h);
    layers.push_back(std::move(r));
  }

  kernels::LmHeadResult lm = kernels::naive_lm_head_loss(
      x, w.w_head, {ids.begin() + 1, ids.end()});
  TrainStepResult out;
  out.loss = lm.loss;
  out.grads = ModelGrads::zeros(cfg);
  out.grads.w_head = std::move(lm.dw);

  Tensor dy = std::move(lm.dh);
  for (std::size_t l = layers.size(); l-- > 0;) {
    const LayerWeights& lw = w.layers[l];
    const ReferenceLayer& r = layers[l];
    LayerGrads& g = out.grads.layers[l];
    tensor::add_inplace(g.w2, tensor::matmul_tn(r.u, dy));
    const Tensor du =
        tensor::relu_backward(tensor::matmul_nt(dy, lw.w2), r.u_pre);
    tensor::add_inplace(g.w1, tensor::matmul_tn(r.h, du));
    const Tensor d_h = tensor::add(tensor::matmul_nt(du, lw.w1), dy);
    tensor::add_inplace(g.wo, tensor::matmul_tn(r.attn, d_h));
    const Tensor d_attn = tensor::matmul_nt(d_h, lw.wo);

    Tensor dq = Tensor::zeros(n, d);
    Tensor dk = Tensor::zeros(n, cfg.d_kv());
    Tensor dv = Tensor::zeros(n, cfg.d_kv());
    for (std::int64_t h = 0; h < cfg.heads; ++h) {
      const auto hi = static_cast<std::size_t>(h);
      const std::int64_t kvh = h / cfg.group_size();
      const auto kvi = static_cast<std::size_t>(kvh);
      kernels::RefAttnGrads ag = kernels::reference_attention_backward(
          r.q[hi], r.k[kvi], r.v[kvi], r.fwd[hi],
          tensor::copy_cols(d_attn, h * dh, dh), scale);
      if (cfg.use_rope) {
        kernels::apply_rope_inverse_inplace(ag.dq, map);
        kernels::apply_rope_inverse_inplace(ag.dk, map);
      }
      tensor::set_cols(dq, h * dh, ag.dq);
      tensor::add_cols_inplace(dk, kvh * dh, ag.dk);
      tensor::add_cols_inplace(dv, kvh * dh, ag.dv);
    }
    tensor::add_inplace(g.wq, tensor::matmul_tn(r.x, dq));
    tensor::add_inplace(g.wk, tensor::matmul_tn(r.x, dk));
    tensor::add_inplace(g.wv, tensor::matmul_tn(r.x, dv));
    dy = d_h;
    tensor::add_inplace(dy, tensor::matmul_nt(dq, lw.wq));
    tensor::add_inplace(dy, tensor::matmul_nt(dk, lw.wk));
    tensor::add_inplace(dy, tensor::matmul_nt(dv, lw.wv));
  }
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < d; ++c) {
      out.grads.w_embed(ids[static_cast<std::size_t>(i)], c) += dy(i, c);
    }
  }
  return out;
}

}  // namespace burst::model::testing
