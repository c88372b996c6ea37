// Head parallelism (DeepSpeed-Ulysses) and hybrid USP baselines versus the
// single-device multi-head reference. Ulysses is USP with one head group
// (head_parallel = G, contiguous shards), so the Ulysses tests below drive
// usp_forward/usp_backward at that corner of the grid.
#include "core/usp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
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

struct MultiHeadProblem {
  std::vector<Tensor> q, k, v, d_out;  // per head [N, dh]
  std::int64_t n, dh;
  int heads;
  float scale;
};

MultiHeadProblem make_problem(std::uint64_t seed, std::int64_t n, int heads,
                              std::int64_t dh) {
  Rng rng(seed);
  MultiHeadProblem p;
  p.n = n;
  p.dh = dh;
  p.heads = heads;
  p.scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (int h = 0; h < heads; ++h) {
    p.q.push_back(rng.gaussian(n, dh, 0.8f));
    p.k.push_back(rng.gaussian(n, dh, 0.8f));
    p.v.push_back(rng.gaussian(n, dh, 0.8f));
    p.d_out.push_back(rng.gaussian(n, dh, 0.8f));
  }
  return p;
}

struct HeadResults {
  std::vector<Tensor> o, dq, dk, dv;
};

HeadResults reference(const MultiHeadProblem& p, const MaskSpec& mask) {
  HeadResults r;
  const IndexMap full = IndexMap::range(0, p.n);
  for (int h = 0; h < p.heads; ++h) {
    const std::size_t hi = static_cast<std::size_t>(h);
    auto fwd = kernels::reference_attention_forward(p.q[hi], full, p.k[hi],
                                                    p.v[hi], full, mask,
                                                    p.scale);
    auto bwd = kernels::reference_attention_backward(p.q[hi], p.k[hi], p.v[hi],
                                                     fwd, p.d_out[hi], p.scale);
    r.o.push_back(std::move(fwd.o));
    r.dq.push_back(std::move(bwd.dq));
    r.dk.push_back(std::move(bwd.dk));
    r.dv.push_back(std::move(bwd.dv));
  }
  return r;
}

std::vector<Tensor> shard_heads(const std::vector<Tensor>& heads,
                                const IndexMap& map) {
  std::vector<Tensor> out;
  out.reserve(heads.size());
  for (const auto& h : heads) {
    out.push_back(shard_rows(h, map));
  }
  return out;
}

TEST(Ulysses, ForwardBackwardMatchReference) {
  MultiHeadProblem p = make_problem(5, 48, 4, 8);
  const int g = 4;
  const MaskSpec mask = MaskSpec::causal();
  Cluster cluster({Topology::single_node(g)});
  HeadResults got;
  for (int h = 0; h < p.heads; ++h) {
    got.o.push_back(Tensor::zeros(p.n, p.dh));
    got.dq.push_back(Tensor::zeros(p.n, p.dh));
    got.dk.push_back(Tensor::zeros(p.n, p.dh));
    got.dv.push_back(Tensor::zeros(p.n, p.dh));
  }
  std::mutex mu;
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    UspConfig cfg;
    cfg.mask = mask;
    cfg.scale = p.scale;
    cfg.seq_len = p.n;
    cfg.num_heads = p.heads;
    cfg.head_parallel = g;
    const IndexMap map =
        device_index_map(Balance::kContiguous, p.n, g, ctx.rank());
    UspSaved saved;
    auto o_local = usp_forward(comm, cfg, shard_heads(p.q, map),
                               shard_heads(p.k, map), shard_heads(p.v, map),
                               &saved);
    auto grads = usp_backward(comm, cfg, saved, shard_heads(p.d_out, map));
    std::lock_guard lock(mu);
    for (int h = 0; h < p.heads; ++h) {
      const std::size_t hi = static_cast<std::size_t>(h);
      unshard_rows(got.o[hi], map, o_local[hi]);
      unshard_rows(got.dq[hi], map, grads.dq[hi]);
      unshard_rows(got.dk[hi], map, grads.dk[hi]);
      unshard_rows(got.dv[hi], map, grads.dv[hi]);
    }
  });
  HeadResults ref = reference(p, mask);
  for (int h = 0; h < p.heads; ++h) {
    const std::size_t hi = static_cast<std::size_t>(h);
    EXPECT_LT(tensor::max_abs_diff(got.o[hi], ref.o[hi]), 2e-4f) << "head " << h;
    EXPECT_LT(tensor::max_abs_diff(got.dq[hi], ref.dq[hi]), 2e-4f);
    EXPECT_LT(tensor::max_abs_diff(got.dk[hi], ref.dk[hi]), 2e-4f);
    EXPECT_LT(tensor::max_abs_diff(got.dv[hi], ref.dv[hi]), 2e-4f);
  }
}

TEST(Ulysses, MultipleHeadsPerDevice) {
  MultiHeadProblem p = make_problem(6, 32, 4, 4);
  const int g = 2;  // 2 heads per device
  Cluster cluster({Topology::single_node(g)});
  HeadResults ref = reference(p, MaskSpec::full());
  std::vector<float> err(static_cast<std::size_t>(g), 1.0f);
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    UspConfig cfg;
    cfg.mask = MaskSpec::full();
    cfg.scale = p.scale;
    cfg.seq_len = p.n;
    cfg.num_heads = p.heads;
    cfg.head_parallel = g;
    const IndexMap map =
        device_index_map(Balance::kContiguous, p.n, g, ctx.rank());
    UspSaved saved;
    auto o_local = usp_forward(comm, cfg, shard_heads(p.q, map),
                               shard_heads(p.k, map), shard_heads(p.v, map),
                               &saved);
    float e = 0.0f;
    for (int h = 0; h < p.heads; ++h) {
      Tensor expected = shard_rows(ref.o[static_cast<std::size_t>(h)], map);
      e = std::max(e, tensor::max_abs_diff(
                          o_local[static_cast<std::size_t>(h)], expected));
    }
    err[static_cast<std::size_t>(ctx.rank())] = e;
  });
  for (int r = 0; r < g; ++r) {
    EXPECT_LT(err[static_cast<std::size_t>(r)], 2e-4f);
  }
}

// The paper's Figure 14 point: 40 heads on 32 GPUs makes head parallelism
// inapplicable. Reproduced as a configuration error.
TEST(Ulysses, IndivisibleHeadCountThrows) {
  const int g = 4;
  Cluster cluster({Topology::single_node(g)});
  EXPECT_THROW(
      cluster.run([&](DeviceContext& ctx) {
        comm::SimTransport comm_tp(ctx);
        Communicator comm(comm_tp);
        UspConfig cfg;
        cfg.seq_len = 8 * g;
        cfg.num_heads = 5;  // 5 % 4 != 0
        cfg.head_parallel = g;
        std::vector<Tensor> qkv(5, Tensor::zeros(8, 4));
        usp_forward(comm, cfg, qkv, qkv, qkv, nullptr);
      }),
      UlyssesConfigError);
}

class UspMatches
    : public ::testing::TestWithParam<std::tuple<int, Balance, BackwardComm>> {
};

TEST_P(UspMatches, ForwardBackwardMatchReference) {
  const auto [gh, balance, backward] = GetParam();
  MultiHeadProblem p = make_problem(9, 64, 4, 8);
  const int g = 4;
  const MaskSpec mask = MaskSpec::causal();
  Cluster cluster({Topology::single_node(g)});
  HeadResults got;
  for (int h = 0; h < p.heads; ++h) {
    got.o.push_back(Tensor::zeros(p.n, p.dh));
    got.dq.push_back(Tensor::zeros(p.n, p.dh));
    got.dk.push_back(Tensor::zeros(p.n, p.dh));
    got.dv.push_back(Tensor::zeros(p.n, p.dh));
  }
  std::mutex mu;
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    UspConfig cfg;
    cfg.mask = mask;
    cfg.scale = p.scale;
    cfg.seq_len = p.n;
    cfg.num_heads = p.heads;
    cfg.head_parallel = gh;
    cfg.balance = balance;
    cfg.backward = backward;
    const IndexMap map = usp_local_index_map(cfg, g, ctx.rank());
    UspSaved saved;
    auto o_local = usp_forward(comm, cfg, shard_heads(p.q, map),
                               shard_heads(p.k, map), shard_heads(p.v, map),
                               &saved);
    auto grads = usp_backward(comm, cfg, saved, shard_heads(p.d_out, map));
    std::lock_guard lock(mu);
    for (int h = 0; h < p.heads; ++h) {
      const std::size_t hi = static_cast<std::size_t>(h);
      unshard_rows(got.o[hi], map, o_local[hi]);
      unshard_rows(got.dq[hi], map, grads.dq[hi]);
      unshard_rows(got.dk[hi], map, grads.dk[hi]);
      unshard_rows(got.dv[hi], map, grads.dv[hi]);
    }
  });
  HeadResults ref = reference(p, mask);
  for (int h = 0; h < p.heads; ++h) {
    const std::size_t hi = static_cast<std::size_t>(h);
    EXPECT_LT(tensor::max_abs_diff(got.o[hi], ref.o[hi]), 3e-4f) << "head " << h;
    EXPECT_LT(tensor::max_abs_diff(got.dq[hi], ref.dq[hi]), 3e-4f);
    EXPECT_LT(tensor::max_abs_diff(got.dk[hi], ref.dk[hi]), 3e-4f);
    EXPECT_LT(tensor::max_abs_diff(got.dv[hi], ref.dv[hi]), 3e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, UspMatches,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Balance::kContiguous,
                                         Balance::kZigzag),
                       ::testing::Values(BackwardComm::kRing,
                                         BackwardComm::kBurst)));

TEST(Usp, InvalidHeadParallelThrows) {
  const int g = 4;
  Cluster cluster({Topology::single_node(g)});
  EXPECT_THROW(
      cluster.run([&](DeviceContext& ctx) {
        comm::SimTransport comm_tp(ctx);
        Communicator comm(comm_tp);
        UspConfig cfg;
        cfg.seq_len = 16;
        cfg.num_heads = 4;
        cfg.head_parallel = 3;  // does not divide 4
        std::vector<Tensor> qkv(4, Tensor::zeros(4, 4));
        usp_forward(comm, cfg, qkv, qkv, qkv, nullptr);
      }),
      std::invalid_argument);
}

TEST(Usp, LocalIndexMapPartitionsSequence) {
  UspConfig cfg;
  cfg.seq_len = 64;
  cfg.num_heads = 4;
  cfg.head_parallel = 2;
  cfg.balance = Balance::kZigzag;
  std::set<std::int64_t> seen;
  for (int r = 0; r < 4; ++r) {
    IndexMap m = usp_local_index_map(cfg, 4, r);
    EXPECT_EQ(m.size(), 16);
    for (std::int64_t i = 0; i < m.size(); ++i) {
      seen.insert(m.global(i));
    }
  }
  EXPECT_EQ(seen.size(), 64u);
}

}  // namespace
}  // namespace burst::core
