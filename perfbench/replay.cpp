#include "replay.hpp"

#include <cmath>
#include <limits>

#include "bench.hpp"
#include "kernels/lm_head.hpp"
#include "kernels/mask.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

using burst::kernels::KernelStats;
using burst::kernels::MaskSpec;
using burst::model::ModelConfig;
using burst::tensor::Rng;
using burst::tensor::Tensor;

namespace {

double fd(std::int64_t v) { return static_cast<double>(v); }

struct Weight {
  std::int64_t in = 0;
  std::int64_t out = 0;
};

// The six projection/FFN weights of one layer, [in, out].
std::vector<Weight> layer_weights(const ModelConfig& cfg) {
  const std::int64_t d = cfg.d_model;
  return {{d, d}, {d, cfg.d_kv()}, {d, cfg.d_kv()}, {d, d},
          {d, cfg.d_ff}, {cfg.d_ff, d}};
}

}  // namespace

Replayed replay_train_gemms(const ModelConfig& cfg, std::int64_t rows,
                            bool recompute, std::uint64_t seed,
                            SpanRecorder* rec) {
  Rng rng(seed);
  Replayed out;
  const auto weights = layer_weights(cfg);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const Weight& w = weights[i];
    const Tensor x = rng.gaussian(rows, w.in, 0.1f);
    const Tensor wt = rng.gaussian(w.in, w.out, 0.1f);
    const Tensor dy = rng.gaussian(rows, w.out, 0.1f);
    for (std::int64_t l = 0; l < cfg.layers; ++l) {
      const double one = 2.0 * fd(rows) * fd(w.in) * fd(w.out);
      // Forward (and its recomputation under checkpointing: every weight
      // but the last FFN matrix is re-applied in the backward).
      const int fwd_calls = (recompute && i + 1 < weights.size()) ? 2 : 1;
      for (int c = 0; c < fwd_calls; ++c) {
        const double t0 = now_s();
        {
          ScopedSpan s(rec, "tensor.gemm");
          Tensor y = burst::tensor::matmul(x, wt);
        }
        out.ms += (now_s() - t0) * 1e3;
        out.flops += one;
      }
      const double t0 = now_s();
      {
        ScopedSpan s(rec, "tensor.gemm");
        Tensor dx = burst::tensor::matmul_nt(dy, wt);
      }
      {
        ScopedSpan s(rec, "tensor.gemm");
        Tensor dw = burst::tensor::matmul_tn(x, dy);
      }
      out.ms += (now_s() - t0) * 1e3;
      out.flops += 2.0 * one;
    }
  }
  return out;
}

Replayed replay_decode_gemms(const ModelConfig& cfg, std::uint64_t seed,
                             SpanRecorder* rec) {
  Rng rng(seed);
  Replayed out;
  for (const Weight& w : layer_weights(cfg)) {
    const Tensor x = rng.gaussian(1, w.in, 0.1f);
    const Tensor wt = rng.gaussian(w.in, w.out, 0.1f);
    for (std::int64_t l = 0; l < cfg.layers; ++l) {
      const double t0 = now_s();
      {
        ScopedSpan s(rec, "tensor.gemm");
        Tensor y = burst::tensor::matmul(x, wt);
      }
      out.ms += (now_s() - t0) * 1e3;
      out.flops += 2.0 * fd(w.in) * fd(w.out);
    }
  }
  return out;
}

Replayed replay_attention_forward(const ModelConfig& cfg,
                                  const std::vector<AttnPair>& pairs,
                                  std::uint64_t seed, SpanRecorder* rec,
                                  KernelStats* stats) {
  Rng rng(seed);
  Replayed out;
  const std::int64_t dh = cfg.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const MaskSpec mask = MaskSpec::causal();
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    for (std::int64_t h = 0; h < cfg.heads; ++h) {
      for (const AttnPair& p : pairs) {
        const Tensor q = rng.gaussian(p.qmap.size(), dh, 1.0f);
        const Tensor k = rng.gaussian(p.kmap.size(), dh, 1.0f);
        const Tensor v = rng.gaussian(p.kmap.size(), dh, 1.0f);
        Tensor o = Tensor::zeros(p.qmap.size(), dh);
        Tensor lse(p.qmap.size());
        lse.fill(-std::numeric_limits<float>::infinity());
        KernelStats st;
        const double t0 = now_s();
        {
          ScopedSpan s(rec, "kernels.flash_forward_partial");
          burst::kernels::flash_forward_partial(q, p.qmap, k, v, p.kmap, mask,
                                                scale, o, lse, &st);
        }
        out.ms += (now_s() - t0) * 1e3;
        out.flops += static_cast<double>(st.flops);
        if (stats != nullptr) {
          stats->flops += st.flops;
          stats->tiles_computed += st.tiles_computed;
          stats->tiles_skipped += st.tiles_skipped;
        }
      }
    }
  }
  return out;
}

Replayed replay_attention_backward(const ModelConfig& cfg,
                                   const std::vector<AttnPair>& pairs,
                                   std::uint64_t seed, SpanRecorder* rec,
                                   KernelStats* stats) {
  Rng rng(seed);
  Replayed out;
  const std::int64_t dh = cfg.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const MaskSpec mask = MaskSpec::causal();
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    for (std::int64_t h = 0; h < cfg.heads; ++h) {
      for (const AttnPair& p : pairs) {
        const Tensor q = rng.gaussian(p.qmap.size(), dh, 1.0f);
        const Tensor k = rng.gaussian(p.kmap.size(), dh, 1.0f);
        const Tensor v = rng.gaussian(p.kmap.size(), dh, 1.0f);
        // Realistic statistics: the forward's O and LSE over this pair.
        const auto fwd = burst::kernels::flash_forward(q, p.qmap, k, v, p.kmap,
                                                       mask, scale);
        const Tensor d_out = rng.gaussian(p.qmap.size(), dh, 1.0f);
        Tensor dq = Tensor::zeros(p.qmap.size(), dh);
        Tensor dk = Tensor::zeros(p.kmap.size(), dh);
        Tensor dv = Tensor::zeros(p.kmap.size(), dh);
        KernelStats st;
        const double t0 = now_s();
        {
          ScopedSpan s(rec, "kernels.flash_backward_partial");
          const Tensor dvec = burst::kernels::attention_dvec(d_out, fwd.o);
          burst::kernels::flash_backward_partial(q, p.qmap, k, v, p.kmap, mask,
                                                 scale, d_out, fwd.lse, dvec,
                                                 dq, dk, dv, &st);
        }
        out.ms += (now_s() - t0) * 1e3;
        out.flops += static_cast<double>(st.flops);
        if (stats != nullptr) {
          stats->flops += st.flops;
          stats->tiles_computed += st.tiles_computed;
          stats->tiles_skipped += st.tiles_skipped;
        }
      }
    }
  }
  return out;
}

Replayed replay_lm_head(const ModelConfig& cfg, std::int64_t rows,
                        std::uint64_t seed, SpanRecorder* rec) {
  Rng rng(seed);
  const Tensor x = rng.gaussian(rows, cfg.d_model, 1.0f);
  const Tensor w = rng.gaussian(cfg.vocab, cfg.d_model, 0.05f);
  std::vector<std::int64_t> targets(static_cast<std::size_t>(rows));
  for (auto& t : targets) {
    t = rng.next_index(cfg.vocab);
  }
  Replayed out;
  const double t0 = now_s();
  burst::kernels::LmHeadResult r;
  {
    ScopedSpan s(rec, "kernels.fused_lm_head_loss");
    r = burst::kernels::fused_lm_head_loss(x, w, targets, 32, 64);
  }
  out.ms = (now_s() - t0) * 1e3;
  out.flops = static_cast<double>(r.flops);
  return out;
}

}  // namespace perfbench
