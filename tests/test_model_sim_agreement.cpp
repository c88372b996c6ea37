// Cross-validation between the two performance paths (DESIGN.md §2): the
// discrete-event simulator's measured sweep times must agree with the
// closed-form communication model when both are given identical link
// parameters. This pins the Table 1 formulas to the executable schedules.
// Every case also checks its peak host RSS against a budget.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "core/sweep.hpp"
#include "obs/report.hpp"
#include "perfmodel/comm_model.hpp"
#include "sim/cluster.hpp"
#include "tensor/tensor.hpp"

namespace burst {
namespace {

using perfmodel::ClusterShape;
using perfmodel::CommModel;
using perfmodel::HardwareModel;
using sim::Cluster;
using sim::DeviceContext;
using sim::Topology;
using tensor::Tensor;

HardwareModel hw_from(const Topology& topo) {
  HardwareModel hw;
  hw.nvlink_bw = topo.intra.bandwidth_bytes_per_s;
  hw.nvlink_latency = topo.intra.latency_s;
  hw.ib_bw = topo.inter.bandwidth_bytes_per_s;
  hw.ib_latency = topo.inter.latency_s;
  return hw;
}

// Host-memory budget of one case (the process peak, via getrusage). Every
// hop shares its rank's 128 MB shard, so the 16-rank cases hold at most
// 2 GB even where calloc writes the pages it hands out (glibc leaves large
// blocks untouched: measured ~10 MB). One deep copy per hop would hold at
// least two shards per rank, 4 GB, and fail.
constexpr double kHostRssBudgetMb = 3.0 * 1024.0;

double simulate_activation_sweep(const Topology& topo, double shard_bytes,
                                 bool topo_aware) {
  Cluster cluster({topo});
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp, 1.0);
    const auto route =
        topo_aware ? core::SweepRoute::double_ring(topo)
                   : core::SweepRoute::flat(comm::flat_ring(topo.world_size()));
    // Built in place: a braced {own} would copy the shard twice.
    std::vector<Tensor> own;
    own.emplace_back(static_cast<std::int64_t>(shard_bytes / 8), 8);
    core::ring_sweep_activation(comm, route, core::SweepOptions{},
                                std::move(own),
                                [](const std::vector<Tensor>&, int) {});
  });
  EXPECT_LE(obs::host_peak_rss_mb(), kHostRssBudgetMb);
  return cluster.makespan();
}

class SimVsModel : public ::testing::TestWithParam<std::pair<int, int>> {};

// Flat-ring forward sweep: (G-1)/G of one tensor pass; the simulator and
// the closed form must agree within a few percent (pipeline fill effects).
TEST_P(SimVsModel, FlatRingForwardSweepMatchesClosedForm) {
  const auto [nodes, gpus] = GetParam();
  Topology topo = Topology::multi_node(nodes, gpus);
  const double shard = 32e6;
  const CommModel cm(hw_from(topo));
  const ClusterShape shape{nodes, gpus};
  const int g = shape.world();
  const double model =
      cm.pass_flat(shard, shape) * static_cast<double>(g - 1) / g;
  const double sim = simulate_activation_sweep(topo, shard, false);
  EXPECT_NEAR(sim, model, 0.10 * model)
      << nodes << "x" << gpus << ": sim " << sim << " model " << model;
}

// Topology-aware sweep: the closed form is the full-overlap lower bound;
// the hop-by-hop simulator must sit at or above it, but within the
// flat-ring time (it must actually help).
TEST_P(SimVsModel, DoubleRingSweepBetweenBoundAndFlat) {
  const auto [nodes, gpus] = GetParam();
  if (nodes < 2 || gpus < 2) {
    GTEST_SKIP();
  }
  Topology topo = Topology::multi_node(nodes, gpus);
  const double shard = 32e6;
  const CommModel cm(hw_from(topo));
  const ClusterShape shape{nodes, gpus};
  const int g = shape.world();
  const double scale = static_cast<double>(g - 1) / g;
  const double bound = std::max(cm.pass_intra_part(shard, shape),
                                cm.pass_inter_part(shard, shape)) *
                       scale;
  const double flat = cm.pass_flat(shard, shape) * scale;
  const double sim = simulate_activation_sweep(topo, shard, true);
  EXPECT_GE(sim, 0.95 * bound);
  EXPECT_LT(sim, flat);
}

INSTANTIATE_TEST_SUITE_P(Topologies, SimVsModel,
                         ::testing::Values(std::make_pair(1, 4),
                                           std::make_pair(2, 4),
                                           std::make_pair(4, 4),
                                           std::make_pair(2, 8)));

}  // namespace
}  // namespace burst
