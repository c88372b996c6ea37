// Integration tests: distributed attention (BurstAttention, RingAttention,
// double-ring routes, all balance strategies, all masks) must reproduce the
// single-device reference bit-for-bit up to fp32 reassociation.
#include "core/dist_attention.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "core/partition.hpp"
#include "kernels/reference_attention.hpp"
#include "sim/cluster.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst::core {
namespace {

using comm::Communicator;
using kernels::IndexMap;
using kernels::MaskSpec;
using sim::Cluster;
using sim::DeviceContext;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

MaskSpec mask_by_name(const std::string& name, std::int64_t n) {
  if (name == "full") {
    return MaskSpec::full();
  }
  if (name == "causal") {
    return MaskSpec::causal();
  }
  if (name == "swa") {
    return MaskSpec::sliding_window(n / 4);
  }
  if (name == "dilated") {
    return MaskSpec::dilated(3);
  }
  // Block-sparse sliding window with block size divisible by every tested G.
  return MaskSpec::block_sliding_window(n / 8, 2, 8);
}

struct Problem {
  Tensor q, k, v, d_out;
  std::int64_t n, d;
  float scale;
};

Problem make_problem(std::uint64_t seed, std::int64_t n, std::int64_t d) {
  Rng rng(seed);
  Problem p;
  p.n = n;
  p.d = d;
  p.scale = 1.0f / std::sqrt(static_cast<float>(d));
  p.q = rng.gaussian(n, d, 0.8f);
  p.k = rng.gaussian(n, d, 0.8f);
  p.v = rng.gaussian(n, d, 0.8f);
  p.d_out = rng.gaussian(n, d, 0.8f);
  return p;
}

struct GlobalResult {
  Tensor o, lse, dq, dk, dv;
};

// Runs the distributed forward+backward on `topo` and gathers global
// results. `route_kind`: "flat" or "double".
GlobalResult run_distributed(const Problem& p, const Topology& topo,
                             const std::string& route_kind,
                             const DistAttnConfig& cfg_base,
                             kernels::KernelStats* stats = nullptr) {
  const int g = topo.world_size();
  Cluster cluster({topo});
  GlobalResult out;
  out.o = Tensor::zeros(p.n, p.d);
  out.lse = Tensor(p.n);
  out.dq = Tensor::zeros(p.n, p.d);
  out.dk = Tensor::zeros(p.n, p.d);
  out.dv = Tensor::zeros(p.n, p.d);
  std::mutex mu;
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    const SweepRoute route = route_kind == "flat"
                                 ? SweepRoute::flat(comm::flat_ring(g))
                                 : SweepRoute::double_ring(topo);
    DistAttnConfig cfg = cfg_base;
    cfg.seq_len = p.n;
    const IndexMap map = route_index_map(route, cfg, ctx.rank());
    LocalQKV local{shard_rows(p.q, map), shard_rows(p.k, map),
                   shard_rows(p.v, map)};
    kernels::KernelStats rank_stats;
    auto fwd = dist_attention_forward(comm, route, cfg, local, &rank_stats);
    Tensor d_out_local = shard_rows(p.d_out, map);
    auto grads = dist_attention_backward(comm, route, cfg, local, fwd,
                                         d_out_local, &rank_stats);
    std::lock_guard lock(mu);
    if (stats != nullptr) {
      stats->tiles_computed += rank_stats.tiles_computed;
      stats->tiles_skipped += rank_stats.tiles_skipped;
      stats->flops += rank_stats.flops;
    }
    unshard_rows(out.o, map, fwd.o);
    unshard_vec(out.lse, map, fwd.lse);
    unshard_rows(out.dq, map, grads.dq);
    unshard_rows(out.dk, map, grads.dk);
    unshard_rows(out.dv, map, grads.dv);
  });
  return out;
}

GlobalResult run_reference(const Problem& p, const MaskSpec& mask) {
  const IndexMap full = IndexMap::range(0, p.n);
  auto fwd =
      kernels::reference_attention_forward(p.q, full, p.k, p.v, full, mask,
                                           p.scale);
  auto bwd =
      kernels::reference_attention_backward(p.q, p.k, p.v, fwd, p.d_out,
                                            p.scale);
  GlobalResult out;
  out.o = fwd.o;
  out.lse = fwd.lse;
  out.dq = bwd.dq;
  out.dk = bwd.dk;
  out.dv = bwd.dv;
  return out;
}

void expect_matches(const GlobalResult& got, const GlobalResult& ref,
                    float tol) {
  EXPECT_LT(tensor::max_abs_diff(got.o, ref.o), tol);
  EXPECT_LT(tensor::max_abs_diff(got.dq, ref.dq), tol);
  EXPECT_LT(tensor::max_abs_diff(got.dk, ref.dk), tol);
  EXPECT_LT(tensor::max_abs_diff(got.dv, ref.dv), tol);
  for (std::int64_t i = 0; i < got.lse.numel(); ++i) {
    if (std::isinf(ref.lse[i])) {
      EXPECT_TRUE(std::isinf(got.lse[i]));
    } else {
      EXPECT_NEAR(got.lse[i], ref.lse[i], 1e-3f) << "lse row " << i;
    }
  }
}

using Combo = std::tuple<std::string, Balance, BackwardComm, int>;

class DistAttention : public ::testing::TestWithParam<Combo> {};

TEST_P(DistAttention, FlatRingMatchesReference) {
  const auto [mask_name, balance, backward, g] = GetParam();
  Problem p = make_problem(7, 64, 8);
  DistAttnConfig cfg;
  cfg.mask = mask_by_name(mask_name, p.n);
  cfg.scale = p.scale;
  cfg.balance = balance;
  cfg.backward = backward;
  GlobalResult got =
      run_distributed(p, Topology::single_node(g), "flat", cfg);
  expect_matches(got, run_reference(p, cfg.mask), 3e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, DistAttention,
    ::testing::Combine(
        ::testing::Values("full", "causal", "swa", "dilated", "blocksparse"),
        ::testing::Values(Balance::kContiguous, Balance::kZigzag,
                          Balance::kStriped),
        ::testing::Values(BackwardComm::kRing, BackwardComm::kBurst),
        ::testing::Values(2, 4)));

class DistAttentionDoubleRing
    : public ::testing::TestWithParam<std::tuple<std::string, BackwardComm>> {};

TEST_P(DistAttentionDoubleRing, TopologyAwareRouteMatchesReference) {
  const auto [mask_name, backward] = GetParam();
  Problem p = make_problem(11, 64, 8);
  DistAttnConfig cfg;
  cfg.mask = mask_by_name(mask_name, p.n);
  cfg.scale = p.scale;
  cfg.balance = Balance::kZigzag;
  cfg.backward = backward;
  GlobalResult got =
      run_distributed(p, Topology::multi_node(2, 4), "double", cfg);
  expect_matches(got, run_reference(p, cfg.mask), 3e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, DistAttentionDoubleRing,
    ::testing::Combine(::testing::Values("full", "causal", "swa"),
                       ::testing::Values(BackwardComm::kRing,
                                         BackwardComm::kBurst)));

TEST(DistAttention, SingleDeviceDegeneratesToLocalFlash) {
  Problem p = make_problem(13, 32, 8);
  DistAttnConfig cfg;
  cfg.mask = MaskSpec::causal();
  cfg.scale = p.scale;
  cfg.backward = BackwardComm::kBurst;
  GlobalResult got =
      run_distributed(p, Topology::single_node(1), "flat", cfg);
  expect_matches(got, run_reference(p, cfg.mask), 2e-4f);
}

TEST(DistAttention, NonOverlappedModeIsNumericallyIdentical) {
  Problem p = make_problem(17, 64, 8);
  DistAttnConfig cfg;
  cfg.mask = MaskSpec::causal();
  cfg.scale = p.scale;
  cfg.balance = Balance::kZigzag;
  cfg.backward = BackwardComm::kBurst;
  cfg.overlap = true;
  GlobalResult a = run_distributed(p, Topology::single_node(4), "flat", cfg);
  cfg.overlap = false;
  GlobalResult b = run_distributed(p, Topology::single_node(4), "flat", cfg);
  EXPECT_FLOAT_EQ(tensor::max_abs_diff(a.o, b.o), 0.0f);
  EXPECT_FLOAT_EQ(tensor::max_abs_diff(a.dq, b.dq), 0.0f);
}

// One multi-head call (4 query heads over 2 K/V heads) against one
// single-head call per query head on the same ranks. Each head's kernels
// are the same, so O, LSE and dQ match bit for bit, and so does Burst's dK
// and dV, which it sums per K/V head in head order; Ring adds a group into
// the shared accumulator at every visit, so its dK and dV match within
// rounding.
TEST(DistAttentionHeads, MultiHeadCallMatchesPerHeadCalls) {
  const std::int64_t n = 64, d = 8, heads = 4, kv_heads = 2;
  Rng rng(31);
  std::vector<Tensor> q, k, v, d_out;
  for (std::int64_t h = 0; h < heads; ++h) {
    q.push_back(rng.gaussian(n, d, 0.8f));
    d_out.push_back(rng.gaussian(n, d, 0.8f));
  }
  for (std::int64_t h = 0; h < kv_heads; ++h) {
    k.push_back(rng.gaussian(n, d, 0.8f));
    v.push_back(rng.gaussian(n, d, 0.8f));
  }
  const auto same = [](const Tensor& a, const Tensor& b) {
    return tensor::max_abs_diff(a, b) == 0.0f;
  };
  for (BackwardComm backward : {BackwardComm::kBurst, BackwardComm::kRing}) {
    Cluster cluster({Topology::single_node(4)});
    std::mutex mu;
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      Communicator comm(comm_tp);
      const SweepRoute route = SweepRoute::flat(comm::flat_ring(4));
      DistAttnConfig cfg;
      cfg.mask = MaskSpec::causal();
      cfg.scale = 1.0f / std::sqrt(static_cast<float>(d));
      cfg.balance = Balance::kZigzag;
      cfg.backward = backward;
      cfg.seq_len = n;
      const IndexMap map = route_index_map(route, cfg, ctx.rank());
      const auto shard = [&](const std::vector<Tensor>& ts) {
        std::vector<Tensor> out;
        for (const Tensor& t : ts) {
          out.push_back(shard_rows(t, map));
        }
        return out;
      };
      const LocalHeads local{shard(q), shard(k), shard(v)};
      const HeadsResult fwd = dist_attention_forward(comm, route, cfg, local);
      const HeadsGrads grads = dist_attention_backward(comm, route, cfg, local,
                                                       fwd, shard(d_out));
      std::vector<Tensor> dk_sum, dv_sum;
      for (std::size_t kvh = 0; kvh < local.k.size(); ++kvh) {
        dk_sum.push_back(Tensor::zeros(local.k[kvh].rows(), d));
        dv_sum.push_back(Tensor::zeros(local.v[kvh].rows(), d));
      }
      for (std::size_t h = 0; h < local.q.size(); ++h) {
        const std::size_t kvh = h / 2;
        const LocalQKV one{local.q[h], local.k[kvh], local.v[kvh]};
        const kernels::AttnResult f =
            dist_attention_forward(comm, route, cfg, one);
        const LocalGrads g = dist_attention_backward(
            comm, route, cfg, one, f, shard_rows(d_out[h], map));
        tensor::add_inplace(dk_sum[kvh], g.dk);
        tensor::add_inplace(dv_sum[kvh], g.dv);
        std::lock_guard lock(mu);
        EXPECT_TRUE(same(fwd.o[h], f.o)) << "head " << h;
        EXPECT_TRUE(same(fwd.lse[h], f.lse)) << "head " << h;
        EXPECT_TRUE(same(grads.dq[h], g.dq)) << "head " << h;
      }
      std::lock_guard lock(mu);
      ASSERT_EQ(grads.dk.size(), dk_sum.size());
      for (std::size_t kvh = 0; kvh < dk_sum.size(); ++kvh) {
        const float tol = backward == BackwardComm::kBurst ? 0.0f : 1e-5f;
        EXPECT_LE(tensor::max_abs_diff(grads.dk[kvh], dk_sum[kvh]), tol);
        EXPECT_LE(tensor::max_abs_diff(grads.dv[kvh], dv_sum[kvh]), tol);
      }
    });
  }
}

// --- the paper's headline communication claim ------------------------------
//
// Per device: forward moves 2Nd (both methods). Backward: RingAttention
// moves (K,V) immutably (G-1 hops) plus (∇K,∇V) accumulators (G hops)
// ≈ 4Nd; BurstAttention moves (Q,∇O) + (Lse,D) immutably plus ∇Q
// ≈ 3Nd + 2N — about 25% less (Section 3.1).
TEST(DistAttentionVolume, BurstBackwardMovesQuarterLessThanRing) {
  Problem p = make_problem(19, 64, 16);
  const int g = 4;
  const double w = 2.0;  // bf16 wire bytes per element
  const std::int64_t n_loc = p.n / g;

  const auto measure = [&](BackwardComm backward) {
    Cluster cluster({Topology::single_node(g)});
    std::vector<std::uint64_t> bytes(static_cast<std::size_t>(g));
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      Communicator comm(comm_tp, w);
      const SweepRoute route = SweepRoute::flat(comm::flat_ring(g));
      DistAttnConfig cfg;
      cfg.mask = MaskSpec::full();
      cfg.scale = p.scale;
      cfg.backward = backward;
      cfg.seq_len = p.n;
      const IndexMap map = route_index_map(route, cfg, ctx.rank());
      LocalQKV local{shard_rows(p.q, map), shard_rows(p.k, map),
                     shard_rows(p.v, map)};
      auto fwd = dist_attention_forward(comm, route, cfg, local);
      const std::uint64_t fwd_bytes = ctx.bytes_sent();
      // Forward: (G-1) hops x 2 tensors of [N/G, d].
      EXPECT_EQ(fwd_bytes,
                static_cast<std::uint64_t>(
                    static_cast<double>((g - 1) * 2 * n_loc * p.d) * w));
      auto grads = dist_attention_backward(comm, route, cfg, local, fwd,
                                           shard_rows(p.d_out, map));
      (void)grads;
      bytes[static_cast<std::size_t>(ctx.rank())] =
          ctx.bytes_sent() - fwd_bytes;
    });
    return bytes[0];
  };

  const std::uint64_t ring_bytes = measure(BackwardComm::kRing);
  const std::uint64_t burst_bytes = measure(BackwardComm::kBurst);

  // Exact per-implementation formulas (wire bytes, per device):
  const std::uint64_t ring_expected = static_cast<std::uint64_t>(
      w * static_cast<double>(
              (g - 1) * 2 * n_loc * p.d    // K,V immutable hops
              + g * 2 * n_loc * p.d));     // ∇K,∇V accumulator hops
  const std::uint64_t burst_expected = static_cast<std::uint64_t>(
      w * static_cast<double>(
              (g - 1) * (2 * n_loc * p.d + 2 * n_loc)  // Q,∇O,Lse,D hops
              + g * n_loc * p.d));                     // ∇Q accumulator hops
  EXPECT_EQ(ring_bytes, ring_expected);
  EXPECT_EQ(burst_bytes, burst_expected);

  // Headline ratio: ~ (3Nd + 2N) / 4Nd -> 0.75 + 1/(2d).
  const double ratio =
      static_cast<double>(burst_bytes) / static_cast<double>(ring_bytes);
  EXPECT_NEAR(ratio, 0.75 + 1.0 / (2.0 * static_cast<double>(p.d)), 0.07);
}

// Identical math, different communication: Ring and Burst backward must agree
// with each other to tight tolerance on every balance strategy.
TEST(DistAttention, RingAndBurstBackwardAgree) {
  Problem p = make_problem(23, 64, 8);
  for (Balance b :
       {Balance::kContiguous, Balance::kZigzag, Balance::kStriped}) {
    DistAttnConfig cfg;
    cfg.mask = MaskSpec::causal();
    cfg.scale = p.scale;
    cfg.balance = b;
    cfg.backward = BackwardComm::kRing;
    GlobalResult ring =
        run_distributed(p, Topology::single_node(4), "flat", cfg);
    cfg.backward = BackwardComm::kBurst;
    GlobalResult burst =
        run_distributed(p, Topology::single_node(4), "flat", cfg);
    EXPECT_LT(tensor::max_abs_diff(ring.dq, burst.dq), 1e-4f);
    EXPECT_LT(tensor::max_abs_diff(ring.dk, burst.dk), 1e-4f);
    EXPECT_LT(tensor::max_abs_diff(ring.dv, burst.dv), 1e-4f);
  }
}

// KernelStats drive the simulated compute charges, so the post-skip tile
// counts and FLOPs of the balanced shards are pinned to the constants an
// exhaustive per-pair tile classification gives. Shards of 80 rows split
// into zigzag segments of 40, so 32-row tiles straddle the segment
// boundary; striped shards are never contiguous.
TEST(DistAttentionStats, BalancedShardTileCountsArePinned) {
  struct Case {
    Balance balance;
    const char* mask;
    std::uint64_t tiles_computed;
    std::uint64_t tiles_skipped;
    std::uint64_t flops;
  };
  const Case cases[] = {
      {Balance::kZigzag, "causal", 192, 96, 7975936},
      {Balance::kZigzag, "swa", 122, 166, 5309440},
      {Balance::kZigzag, "dilated", 192, 96, 7975936},
      {Balance::kZigzag, "blocksparse", 52, 236, 2241536},
      {Balance::kStriped, "causal", 192, 96, 7803904},
      {Balance::kStriped, "swa", 160, 128, 6886400},
      {Balance::kStriped, "dilated", 192, 96, 7803904},
      {Balance::kStriped, "blocksparse", 160, 128, 6886400},
  };
  Problem p = make_problem(29, 320, 8);
  for (const Case& c : cases) {
    DistAttnConfig cfg;
    cfg.mask = mask_by_name(c.mask, p.n);
    cfg.scale = p.scale;
    cfg.balance = c.balance;
    cfg.backward = BackwardComm::kBurst;
    kernels::KernelStats stats;
    run_distributed(p, Topology::single_node(4), "flat", cfg, &stats);
    EXPECT_EQ(stats.tiles_computed, c.tiles_computed)
        << balance_name(c.balance) << " " << c.mask;
    EXPECT_EQ(stats.tiles_skipped, c.tiles_skipped)
        << balance_name(c.balance) << " " << c.mask;
    EXPECT_EQ(stats.flops, c.flops) << balance_name(c.balance) << " " << c.mask;
  }
}

}  // namespace
}  // namespace burst::core
