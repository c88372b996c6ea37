// Rotary position embeddings: rotation algebra, the relative-position
// property, and the context-parallel global-position correctness trap.
#include "kernels/rope.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <mutex>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "kernels/flash_attention.hpp"
#include "model/dist_model.hpp"
#include "model/transformer.hpp"
#include "sim/cluster.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst {
namespace {

using kernels::IndexMap;
using kernels::MaskSpec;
using tensor::Rng;
using tensor::Tensor;

TEST(Rope, PositionZeroIsIdentity) {
  Rng rng(3);
  Tensor x = rng.gaussian(1, 8, 1.0f);
  Tensor orig = x;
  kernels::apply_rope_inplace(x, IndexMap::range(0, 1));
  EXPECT_LT(tensor::max_abs_diff(x, orig), 1e-6f);
}

TEST(Rope, InverseUndoesRotation) {
  Rng rng(5);
  Tensor x = rng.gaussian(16, 8, 1.0f);
  Tensor orig = x;
  const IndexMap map = IndexMap::range(100, 16);
  kernels::apply_rope_inplace(x, map);
  EXPECT_GT(tensor::max_abs_diff(x, orig), 1e-3f);  // actually rotated
  kernels::apply_rope_inverse_inplace(x, map);
  EXPECT_LT(tensor::max_abs_diff(x, orig), 1e-5f);
}

TEST(Rope, PreservesNorms) {
  Rng rng(7);
  Tensor x = rng.gaussian(8, 16, 1.0f);
  Tensor orig = x;
  kernels::apply_rope_inplace(x, IndexMap::range(37, 8));
  for (std::int64_t r = 0; r < 8; ++r) {
    double n_orig = 0.0;
    double n_rot = 0.0;
    for (std::int64_t c = 0; c < 16; ++c) {
      n_orig += static_cast<double>(orig(r, c)) * orig(r, c);
      n_rot += static_cast<double>(x(r, c)) * x(r, c);
    }
    EXPECT_NEAR(n_rot, n_orig, 1e-4);
  }
}

// The defining property: attention scores depend only on relative
// positions. Shifting every position by a constant leaves the (full-mask)
// attention output unchanged.
TEST(Rope, AttentionInvariantUnderGlobalShift) {
  Rng rng(11);
  const std::int64_t n = 24;
  const std::int64_t d = 8;
  Tensor q0 = rng.gaussian(n, d, 0.8f);
  Tensor k0 = rng.gaussian(n, d, 0.8f);
  Tensor v = rng.gaussian(n, d, 0.8f);

  const auto attn_with_offset = [&](std::int64_t offset) {
    Tensor q = q0;
    Tensor k = k0;
    const IndexMap pos = IndexMap::range(offset, n);
    kernels::apply_rope_inplace(q, pos);
    kernels::apply_rope_inplace(k, pos);
    const IndexMap local = IndexMap::range(0, n);
    return kernels::flash_forward(q, local, k, v, local, MaskSpec::full(),
                                  0.35f);
  };

  auto a = attn_with_offset(0);
  auto b = attn_with_offset(1000);
  EXPECT_LT(tensor::max_abs_diff(a.o, b.o), 2e-4f);
}

// The per-element formulation the angle tables replaced: every call
// recomputes cos and sin of sign * pos * freq for every element.
void rotate_per_element(Tensor& x, const IndexMap& positions, float sign) {
  const std::int64_t d = x.cols();
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    const double pos = static_cast<double>(positions.global(r));
    for (std::int64_t i = 0; i < d / 2; ++i) {
      const double freq =
          std::pow(10000.0, -2.0 * static_cast<double>(i) /
                                static_cast<double>(d));
      const double angle = sign * pos * freq;
      const float c = static_cast<float>(std::cos(angle));
      const float s = static_cast<float>(std::sin(angle));
      const float a = x(r, 2 * i);
      const float b = x(r, 2 * i + 1);
      x(r, 2 * i) = a * c - b * s;
      x(r, 2 * i + 1) = a * s + b * c;
    }
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

// One table per set of positions gives the bits of per-element trig, forward
// and inverse (the inverse reads sin negated, which relies on cos being even
// and sin odd bit for bit), on every map kind, positions up to 2^20, every
// head width the models use, odd row counts, and single rows read at an
// offset into the table (the decode path).
TEST(Rope, TableMatchesPerElementTrigBitwise) {
  constexpr std::int64_t kTop = std::int64_t{1} << 20;
  const std::vector<IndexMap> maps = {
      IndexMap::range(0, 37),
      IndexMap::range(kTop - 257, 257),
      IndexMap::segments({{3, 50}, {kTop - 51, 51}}),   // zigzag
      IndexMap::strided(7, 8191, 129),                  // striped, to ~2^20
      IndexMap::range(kTop, 1),                         // one row
      IndexMap::range(12345, 1),
  };
  Rng rng(37);
  for (const std::int64_t dh : {16, 32, 64, 128}) {
    for (const IndexMap& map : maps) {
      const kernels::RopeTable table(map, dh);
      ASSERT_EQ(table.rows(), map.size());
      ASSERT_EQ(table.head_dim(), dh);
      const Tensor x = rng.gaussian(map.size(), dh, 1.0f);
      for (const float sign : {1.0f, -1.0f}) {
        Tensor want = x;
        rotate_per_element(want, map, sign);
        Tensor got = x;
        if (sign > 0.0f) {
          kernels::apply_rope_inplace(got, table);
        } else {
          kernels::apply_rope_inverse_inplace(got, table);
        }
        EXPECT_TRUE(same_bits(got, want))
            << "dh " << dh << ", first position " << map.global(0)
            << ", rows " << map.size() << ", sign " << sign;
        Tensor wrapped = x;
        if (sign > 0.0f) {
          kernels::apply_rope_inplace(wrapped, map);
        } else {
          kernels::apply_rope_inverse_inplace(wrapped, map);
        }
        EXPECT_TRUE(same_bits(wrapped, want)) << "IndexMap overload";
        const std::int64_t r = map.size() / 2;
        Tensor row = x.copy_rows(r, 1);
        if (sign > 0.0f) {
          kernels::apply_rope_inplace(row, table, r);
        } else {
          kernels::apply_rope_inverse_inplace(row, table, r);
        }
        EXPECT_TRUE(same_bits(row, want.copy_rows(r, 1))) << "row " << r;
      }
    }
  }
}

// RoPE through the whole serial model: finite-difference gradcheck covers
// the inverse-rotation backward path.
TEST(Rope, SerialModelGradcheck) {
  model::ModelConfig cfg = model::ModelConfig::toy();
  cfg.layers = 1;
  cfg.use_rope = true;
  model::ModelWeights w = model::ModelWeights::init(cfg, 13);
  Rng rng(17);
  Tensor tokens = rng.token_ids(11, cfg.vocab);
  const MaskSpec mask = MaskSpec::causal();
  auto step = model::serial_train_step(cfg, w, tokens, mask);

  const float eps = 2e-2f;
  const auto check = [&](Tensor& param, const Tensor& grad, std::int64_t idx) {
    const float orig = param.data()[idx];
    param.data()[idx] = orig + eps;
    const double lp = model::serial_loss(cfg, w, tokens, mask);
    param.data()[idx] = orig - eps;
    const double lm = model::serial_loss(cfg, w, tokens, mask);
    param.data()[idx] = orig;
    const double fd = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(grad.data()[idx], fd, 2e-3 + 0.1 * std::fabs(fd));
  };
  check(w.layers[0].wq, step.grads.layers[0].wq, 9);
  check(w.layers[0].wk, step.grads.layers[0].wk, 14);
}

// The trap: under zigzag balance the local row order is not the global
// order; RoPE must rotate by global positions or distributed != serial.
TEST(Rope, DistributedZigzagMatchesSerial) {
  model::ModelConfig cfg = model::ModelConfig::toy();
  cfg.use_rope = true;
  model::ModelWeights w = model::ModelWeights::init(cfg, 19);
  Rng rng(23);
  Tensor tokens = rng.token_ids(33, cfg.vocab);
  auto serial = model::serial_train_step(cfg, w, tokens, MaskSpec::causal());

  model::DistTrainConfig dc;
  dc.model = cfg;
  dc.impl = model::AttnImpl::kBurst;
  dc.balance = core::Balance::kZigzag;
  dc.ckpt = {core::CkptStrategy::kSeqSelective, 0.5};

  sim::Cluster cluster({sim::Topology::single_node(4)});
  double loss = 0.0;
  float err = 1.0f;
  std::mutex mu;
  cluster.run([&](sim::DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    auto r = model::dist_train_step(comm, dc, w, tokens);
    if (ctx.rank() == 0) {
      std::lock_guard lock(mu);
      loss = r.loss;
      err = std::max(tensor::max_abs_diff(r.grads.layers[0].wq,
                                          serial.grads.layers[0].wq),
                     tensor::max_abs_diff(r.grads.layers[1].wk,
                                          serial.grads.layers[1].wk));
    }
  });
  EXPECT_NEAR(loss, serial.loss, 1e-4);
  EXPECT_LT(err, 2e-3f);
}

// Striped balance too — every row's global position is distinct from its
// local index, so any local-index rotation would fail loudly here.
TEST(Rope, DistributedStripedMatchesSerial) {
  model::ModelConfig cfg = model::ModelConfig::toy();
  cfg.use_rope = true;
  model::ModelWeights w = model::ModelWeights::init(cfg, 29);
  Rng rng(31);
  Tensor tokens = rng.token_ids(33, cfg.vocab);
  auto serial = model::serial_train_step(cfg, w, tokens, MaskSpec::causal());

  model::DistTrainConfig dc;
  dc.model = cfg;
  dc.impl = model::AttnImpl::kRing;
  dc.balance = core::Balance::kStriped;

  sim::Cluster cluster({sim::Topology::single_node(4)});
  double loss = 0.0;
  std::mutex mu;
  cluster.run([&](sim::DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    auto r = model::dist_train_step(comm, dc, w, tokens);
    if (ctx.rank() == 0) {
      std::lock_guard lock(mu);
      loss = r.loss;
    }
  });
  EXPECT_NEAR(loss, serial.loss, 1e-4);
}

}  // namespace
}  // namespace burst
