// Table 1: per-layer attention communication time of RingAttention,
// DoubleRingAttention and BurstAttention, from the closed-form model AND
// cross-validated against the functional cluster simulator (time-only
// sweeps at the same shard sizes).
#include <cmath>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "reporter.hpp"
#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "core/dist_attention.hpp"
#include "core/sweep.hpp"
#include "obs/report.hpp"
#include "perfmodel/comm_model.hpp"
#include "sim/cluster.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace burst;
using namespace burst::bench;

// Host-memory budget. The cross-validation sweeps run up to 16 ranks with a
// 256 MB fp32 stand-in shard each (4 GB if every page were written); hops
// share shards, so one deep copy per hop (at least 8 GB) fails the check.
constexpr double kHostRssBudgetMb = 6.0 * 1024.0;

// Simulated makespan of one activation pass + comparable gradient passes is
// complex to map 1:1 onto Table 1's coefficients; instead we validate the
// *forward* comparison: flat-ring K/V sweep vs double-ring K/V sweep over
// identical shard bytes, no compute.
double simulate_forward_sweep(int nodes, int gpus, double shard_bytes,
                              bool topo_aware) {
  sim::Cluster::Config cc;
  cc.topo = sim::Topology::multi_node(nodes, gpus);
  sim::Cluster cluster(cc);
  cluster.run([&](sim::DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp, 1.0);
    const core::SweepRoute route =
        topo_aware ? core::SweepRoute::double_ring(cc.topo)
                   : core::SweepRoute::flat(comm::flat_ring(nodes * gpus));
    // One tensor of shard_bytes elements at 1 B/element, built in place (a
    // braced {own} would copy it twice). Its pages stay untouched: the
    // sweep shares it hop to hop and the visit reads nothing.
    std::vector<tensor::Tensor> own;
    own.emplace_back(static_cast<std::int64_t>(shard_bytes / 8), 8);
    core::ring_sweep_activation(comm, route, core::SweepOptions{},
                                std::move(own),
                                [](const std::vector<tensor::Tensor>&, int) {});
  });
  return cluster.makespan();
}

}  // namespace

int main() {
  Reporter rep("table1_comm_time");
  title("Table 1 — attention communication time per layer (closed form)");
  perfmodel::CommModel cm{perfmodel::HardwareModel{}};

  for (int nodes : {2, 4, 8}) {
    perfmodel::ClusterShape shape{nodes, 8};
    subtitle("cluster " + std::to_string(nodes) + " nodes x 8 GPUs");
    Table t({"shard size (MB)", "RingAttention (ms)", "DoubleRing (ms)",
             "BurstAttention (ms)", "Burst/Ring"});
    for (double mb : {8.0, 32.0, 128.0, 512.0}) {
      const double bytes = mb * 1e6;
      const double ring = cm.ring_attention_comm(bytes, shape);
      const double dbl = cm.double_ring_comm(bytes, shape);
      const double burst =
          cm.burst_comm(bytes, bytes / 4096.0, shape, true, true);
      t.row({fmt(mb, "%.0f"), fmt(ring * 1e3), fmt(dbl * 1e3),
             fmt(burst * 1e3), fmt(burst / ring, "%.3f")});
      const std::string tag = std::to_string(nodes) + "x8_" +
                              fmt(mb, "%.0f") + "mb";
      rep.measurement("ring_ms_" + tag, ring * 1e3);
      rep.measurement("double_ring_ms_" + tag, dbl * 1e3);
      rep.measurement("burst_ms_" + tag, burst * 1e3);
      rep.check(burst < ring,
                "Burst beats flat Ring at " + tag + " (Table 1 ordering)");
      rep.check(dbl < ring,
                "DoubleRing beats flat Ring at " + tag + " (Table 1 ordering)");
    }
    t.print();
  }

  title("Cross-validation — simulator vs closed form (forward K/V sweep)");
  Table v({"cluster", "shard (MB)", "sim flat (ms)", "model flat (ms)",
           "sim double (ms)", "model double (ms)"});
  for (int nodes : {2, 4}) {
    for (double mb : {8.0, 64.0}) {
      const double bytes = mb * 1e6;
      perfmodel::ClusterShape shape{nodes, 4};
      sim::Topology topo = sim::Topology::multi_node(nodes, 4);
      perfmodel::HardwareModel hw;
      hw.nvlink_bw = topo.intra.bandwidth_bytes_per_s;
      hw.nvlink_latency = topo.intra.latency_s;
      hw.ib_bw = topo.inter.bandwidth_bytes_per_s;
      hw.ib_latency = topo.inter.latency_s;
      perfmodel::CommModel cmv{hw};
      // Forward sweep = (G-1)/G of one 2-tensor pass; compare single-tensor
      // pass scaled accordingly.
      const int g = shape.world();
      const double scale = static_cast<double>(g - 1) / g;
      const double sim_flat = simulate_forward_sweep(nodes, 4, bytes, false);
      const double model_flat = cmv.pass_flat(bytes, shape) * scale;
      const double sim_dbl = simulate_forward_sweep(nodes, 4, bytes, true);
      const double model_dbl =
          std::max(cmv.pass_intra_part(bytes, shape),
                   cmv.pass_inter_part(bytes, shape)) *
          scale;
      v.row({std::to_string(nodes) + "x4", fmt(mb, "%.0f"),
             fmt(sim_flat * 1e3), fmt(model_flat * 1e3), fmt(sim_dbl * 1e3),
             fmt(model_dbl * 1e3)});
      const std::string tag =
          std::to_string(nodes) + "x4_" + fmt(mb, "%.0f") + "mb";
      rep.measurement("sim_flat_ms_" + tag, sim_flat * 1e3);
      rep.measurement("sim_double_ms_" + tag, sim_dbl * 1e3);
      // Simulator and closed form must agree to ~30%: the model takes the
      // max of the intra/inter rails while the simulator resolves their
      // per-hop interleaving exactly, a gap that grows with node count
      // (20% at 4 nodes).
      rep.check(std::abs(sim_flat - model_flat) <= 0.3 * model_flat,
                "simulator matches closed-form flat ring at " + tag);
      rep.check(std::abs(sim_dbl - model_dbl) <= 0.3 * model_dbl,
                "simulator matches closed-form double ring at " + tag);
    }
  }
  v.print();
  const double rss_mb = obs::host_peak_rss_mb();
  rep.measurement("host_peak_rss_mb", rss_mb, obs::RunReport::kNoPaperValue,
                  "MB");
  rep.check(rss_mb <= kHostRssBudgetMb,
            "host peak RSS within the " +
                std::to_string(static_cast<int>(kHostRssBudgetMb)) +
                " MB budget");
  std::printf(
      "\npaper: Burst < DoubleRing < Ring whenever B_intra > B_inter; the\n"
      "backward volume drop is ~25%% (3Nd+2N vs 4Nd).\n");
  return rep.finish();
}
