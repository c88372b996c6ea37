#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace burst::comm {
namespace {

using sim::Cluster;
using sim::DeviceContext;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

class Collectives : public ::testing::TestWithParam<int> {};

TEST_P(Collectives, AllGatherRowsConcatenatesByRank) {
  const int g = GetParam();
  Cluster cluster({Topology::single_node(g)});
  std::vector<int> ok(static_cast<std::size_t>(g), 0);
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    Tensor local = Tensor::full(2, 3, static_cast<float>(ctx.rank()));
    Tensor full = comm.all_gather_rows(local);
    ASSERT_EQ(full.rows(), 2 * g);
    bool good = true;
    for (int r = 0; r < g; ++r) {
      for (std::int64_t i = 0; i < 2; ++i) {
        for (std::int64_t j = 0; j < 3; ++j) {
          good = good && full(r * 2 + i, j) == static_cast<float>(r);
        }
      }
    }
    ok[static_cast<std::size_t>(ctx.rank())] = good ? 1 : 0;
  });
  for (int r = 0; r < g; ++r) {
    EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
}

TEST_P(Collectives, ReduceScatterRowsSumsAndShards) {
  const int g = GetParam();
  Cluster cluster({Topology::single_node(g)});
  std::vector<float> got(static_cast<std::size_t>(g), -1.0f);
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    // Each rank contributes chunk value (rank+1) * (chunk index+1).
    Tensor full(g * 2, 2);
    for (int c = 0; c < g; ++c) {
      for (std::int64_t i = 0; i < 2; ++i) {
        for (std::int64_t j = 0; j < 2; ++j) {
          full(c * 2 + i, j) =
              static_cast<float>((ctx.rank() + 1) * (c + 1));
        }
      }
    }
    Tensor shard = comm.reduce_scatter_rows(full);
    // Sum over ranks of (rank+1)*(my_chunk+1) = (my_chunk+1) * g(g+1)/2.
    got[static_cast<std::size_t>(ctx.rank())] = shard(0, 0);
  });
  const float ranksum = static_cast<float>(g * (g + 1)) / 2.0f;
  for (int r = 0; r < g; ++r) {
    EXPECT_FLOAT_EQ(got[static_cast<std::size_t>(r)],
                    static_cast<float>(r + 1) * ranksum)
        << "rank " << r;
  }
}

TEST_P(Collectives, AllReduceMatchesSerialSum) {
  const int g = GetParam();
  Cluster cluster({Topology::single_node(g)});
  // Reference: sum of every rank's tensor.
  std::vector<Tensor> inputs;
  for (int r = 0; r < g; ++r) {
    Rng rng(100 + r);
    inputs.push_back(rng.gaussian(static_cast<std::int64_t>(g) * 3, 4, 1.0f));
  }
  Tensor expected = Tensor::zeros(g * 3, 4);
  for (const auto& t : inputs) {
    tensor::add_inplace(expected, t);
  }
  std::vector<float> err(static_cast<std::size_t>(g), 1.0f);
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    Tensor t = inputs[static_cast<std::size_t>(ctx.rank())];
    comm.all_reduce_inplace(t);
    err[static_cast<std::size_t>(ctx.rank())] =
        tensor::max_abs_diff(t, expected);
  });
  for (int r = 0; r < g; ++r) {
    EXPECT_LT(err[static_cast<std::size_t>(r)], 1e-4f) << "rank " << r;
  }
}

TEST_P(Collectives, AllToAllTransposesOwnership) {
  const int g = GetParam();
  Cluster cluster({Topology::single_node(g)});
  std::vector<int> ok(static_cast<std::size_t>(g), 0);
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    std::vector<Tensor> send;
    for (int dst = 0; dst < g; ++dst) {
      // Encode (src, dst) into the payload.
      send.push_back(
          Tensor::full(1, 2, static_cast<float>(ctx.rank() * 100 + dst)));
    }
    std::vector<Tensor> got = comm.all_to_all(std::move(send));
    bool good = got.size() == static_cast<std::size_t>(g);
    for (int src = 0; src < g && good; ++src) {
      good = got[static_cast<std::size_t>(src)](0, 0) ==
             static_cast<float>(src * 100 + ctx.rank());
    }
    ok[static_cast<std::size_t>(ctx.rank())] = good ? 1 : 0;
  });
  for (int r = 0; r < g; ++r) {
    EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, Collectives,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(CollectivesFixed, BroadcastFromNonzeroRoot) {
  const int g = 4;
  Cluster cluster({Topology::single_node(g)});
  std::vector<float> got(g, -1.0f);
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    Tensor t = ctx.rank() == 2 ? Tensor::full(2, 2, 9.0f) : Tensor();
    comm.broadcast(t, 2);
    got[static_cast<std::size_t>(ctx.rank())] = t(1, 1);
  });
  for (int r = 0; r < g; ++r) {
    EXPECT_FLOAT_EQ(got[static_cast<std::size_t>(r)], 9.0f);
  }
}

// Point-to-point payloads are handed over, not copied: on SimTransport a
// moved-in vector arrives holding the sender's storage.
TEST(CollectivesFixed, SendOfMovedVectorArrivesWithSendersStorage) {
  Cluster cluster({Topology::single_node(2)});
  const float* sent = nullptr;  // set by rank 0 before its send
  int received = 0;
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    if (ctx.rank() == 0) {
      std::vector<Tensor> payload;
      payload.push_back(Tensor::full(4, 4, 5.0f));
      sent = payload[0].data();
      comm.send(1, 9, std::move(payload));
    } else {
      const std::vector<Tensor> got = comm.recv(0, 9);
      EXPECT_EQ(got.at(0).data(), sent);
      EXPECT_FLOAT_EQ(got[0](3, 3), 5.0f);
      ++received;
    }
  });
  EXPECT_EQ(received, 1);
}

TEST(CollectivesFixed, WireBytesUsesConfiguredWidth) {
  Cluster cluster({Topology::single_node(1)});
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport bf16_tp(ctx);
    Communicator bf16(bf16_tp, 2.0);
    comm::SimTransport fp32_tp(ctx);
    Communicator fp32(fp32_tp, 4.0);
    std::vector<Tensor> bundle;
    bundle.push_back(Tensor::zeros(4, 8));   // 32 elements
    bundle.push_back(Tensor::zeros(16));     // 16 elements
    EXPECT_EQ(bf16.wire_bytes(bundle), 96u);
    EXPECT_EQ(fp32.wire_bytes(bundle), 192u);
  });
}

TEST(CollectivesFixed, StreamSelectionFollowsTopology) {
  Cluster cluster({Topology::multi_node(2, 2)});
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    if (ctx.rank() == 0) {
      EXPECT_EQ(comm.stream_for(1), sim::kIntraComm);
      EXPECT_EQ(comm.stream_for(2), sim::kInterComm);
      EXPECT_EQ(comm.stream_for(3), sim::kInterComm);
    }
  });
}

// Ring all-gather on G devices must move exactly (G-1) shards per device.
TEST(CollectivesFixed, AllGatherWireVolumeIsOptimal) {
  const int g = 4;
  Cluster cluster({Topology::single_node(g)});
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp, 2.0);
    Tensor local = Tensor::zeros(2, 8);  // 16 elements -> 32 wire bytes
    comm.all_gather_rows(local);
    EXPECT_EQ(ctx.bytes_sent(), static_cast<std::uint64_t>((g - 1) * 32));
    EXPECT_EQ(ctx.messages_sent(), static_cast<std::uint64_t>(g - 1));
  });
}

TEST(CollectivesFixed, SingleRankCollectivesAreIdentity) {
  Cluster cluster({Topology::single_node(1)});
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    Rng rng(1);
    Tensor t = rng.gaussian(3, 3, 1.0f);
    Tensor ag = comm.all_gather_rows(t);
    EXPECT_LT(tensor::max_abs_diff(ag, t), 1e-7f);
    Tensor rs = comm.reduce_scatter_rows(t);
    EXPECT_LT(tensor::max_abs_diff(rs, t), 1e-7f);
    Tensor ar = t;
    comm.all_reduce_inplace(ar);
    EXPECT_LT(tensor::max_abs_diff(ar, t), 1e-7f);
  });
}

}  // namespace
}  // namespace burst::comm
