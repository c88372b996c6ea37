// sweep_timeonly: paper-scale time-only ring sweeps with no compute. Each
// operation is one BurstAttention layer's communication on a 2 nodes x 2
// GPUs SimTransport cluster over the topology-aware double ring: the
// forward K/V activation sweep, then the backward gradient sweep that
// circulates (Q, dO, Lse, D) with dQ as the accumulator.
//
// Shards are sized like LLaMA-7B (d=4096, bf16) at 1024 tokens per rank:
// 8 MiB per [tokens, d] tensor on the wire. Time-only payloads are carried
// the way the program's time-only paths carry them today: a real tensor of
// shard_bytes elements charged at 1 byte per element. This is the only
// workload where sim and comm dominate with no kernel work.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "core/sweep.hpp"
#include "perfmodel/comm_model.hpp"
#include "sim/cluster.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "timed_transport.hpp"

namespace perfbench {

namespace {

using burst::tensor::Tensor;

constexpr int kMinOps = 3;
constexpr int kNodes = 2;
constexpr int kGpus = 2;
constexpr int kWorld = kNodes * kGpus;
constexpr std::int64_t kModelDim = 4096;
constexpr std::int64_t kTokensPerRank = 1024;
constexpr std::int64_t kShardBytes = kTokensPerRank * kModelDim * 2;  // bf16
constexpr std::int64_t kVecBytes = kTokensPerRank * 2;
// Closed form vs simulator tolerance of the repository's Table 1
// cross-validation (bench_table1_comm_time).
constexpr double kModelTolerance = 0.3;

// Time-only stand-in of a `bytes`-byte shard: charged at 1 B/element.
Tensor time_only(std::int64_t bytes) { return Tensor(bytes / 8, 8); }

struct SweepState {
  std::unique_ptr<burst::sim::Cluster> cluster;
  Tensor shard;  // template every rank copies its shards from
  Tensor vec;
};

struct OpOut {
  std::vector<double> send_s = std::vector<double>(kWorld, 0.0);
  std::vector<double> recv_s = std::vector<double>(kWorld, 0.0);
  std::vector<std::uint64_t> retries = std::vector<std::uint64_t>(kWorld, 0);
};

OpOut sweep_op(SweepState& st, SpanRecorder* rec) {
  OpOut out;
  st.cluster->run([&](burst::sim::DeviceContext& ctx) {
    burst::comm::SimTransport sim_tp(ctx);
    TimedTransport tp(sim_tp);
    burst::comm::Communicator comm(tp, /*wire_bytes_per_element=*/1.0);
    const auto route = burst::core::SweepRoute::double_ring(ctx.topo());
    burst::core::SweepOptions act;
    act.tag_base = 0;
    {
      ScopedSpan s(rec, "core.ring_sweep_activation");
      burst::core::ring_sweep_activation(
          comm, route, act, {st.shard, st.shard},
          [](const std::vector<Tensor>&, int) {});
    }
    burst::core::SweepOptions grad;
    grad.tag_base = 100;
    {
      ScopedSpan s(rec, "core.ring_sweep_gradient");
      burst::core::ring_sweep_gradient(
          comm, route, grad, {st.shard, st.shard, st.vec, st.vec},
          {time_only(kShardBytes)},
          [](const std::vector<Tensor>&, int) {
            return std::vector<Tensor>{time_only(kShardBytes)};
          });
    }
    const std::size_t r = static_cast<std::size_t>(ctx.rank());
    out.send_s[r] = tp.send_s();
    out.recv_s[r] = tp.recv_s();
    out.retries[r] = comm.retries();
  });
  return out;
}

// Closed-form BurstAttention layer communication time on this topology
// (perfmodel::CommModel with the simulator's link parameters): five tensor
// passes and two vector passes over the double ring, scaled to the G-1 hops
// a pass takes in a sweep.
double model_makespan_s(const burst::sim::Topology& topo) {
  burst::perfmodel::HardwareModel hw;
  hw.nvlink_bw = topo.intra.bandwidth_bytes_per_s;
  hw.nvlink_latency = topo.intra.latency_s;
  hw.ib_bw = topo.inter.bandwidth_bytes_per_s;
  hw.ib_latency = topo.inter.latency_s;
  const burst::perfmodel::CommModel cm{hw};
  const burst::perfmodel::ClusterShape shape{kNodes, kGpus};
  return cm.burst_comm(static_cast<double>(kShardBytes),
                       static_cast<double>(kVecBytes), shape, true, true) *
         (kWorld - 1) / kWorld;
}

}  // namespace

void run_sweep_timeonly(const Options& opt, Result& res) {
  // Four rank threads do the work; the kernel pool is not used.
  pin_pool(1, opt, res);
  res.note("sweep_timeonly: time-only Burst activation + gradient ring sweeps, "
           "2x2 double ring, " + std::to_string(kShardBytes) +
           " B per tensor shard (d=4096 bf16, 1024 tokens/rank); time-only "
           "payloads carry no data, so the seed changes nothing");

  burst::sim::TraceRecorder virt;  // the traced run's virtual spans
  std::unique_ptr<SweepState> st;
  res.metric("setup_s", median_setup_s([&] {
               st = std::make_unique<SweepState>();
               burst::sim::Cluster::Config cc;
               cc.topo = burst::sim::Topology::multi_node(kNodes, kGpus);
               cc.trace = opt.trace ? &virt : nullptr;
               st->cluster = std::make_unique<burst::sim::Cluster>(cc);
               st->shard = time_only(kShardBytes);
               st->vec = time_only(kVecBytes);
             }),
             "s");

  // First op: host memory of one sweep and the closed-form check.
  const double rss_before = peak_rss_mb();
  sweep_op(*st, nullptr);
  const double rss_delta_b = (peak_rss_mb() - rss_before) * 1024.0 * 1024.0;
  const double makespan0 = st->cluster->makespan();
  const double modeled = model_makespan_s(st->cluster->config().topo);
  res.attempt();
  if (!res.check(std::abs(makespan0 - modeled) <= kModelTolerance * modeled,
                 "sweep_timeonly virtual makespan within Table 1 tolerance "
                 "of perfmodel::CommModel")) {
    res.fail();
  }
  res.note("virtual makespan " + std::to_string(makespan0 * 1e3) +
           " ms, closed form " + std::to_string(modeled * 1e3) + " ms");

  const auto loop = [&](double seconds, SpanRecorder* r, std::vector<OpOut>* outs) {
    std::vector<double> walls;
    const double t_end = now_s() + seconds;
    while (static_cast<int>(walls.size()) < kMinOps || now_s() < t_end) {
      res.attempt();
      virt.clear();  // keep only the newest sweep's virtual spans
      ScopedSpan op(r, "op.sweep");
      const double t0 = now_s();
      outs->push_back(sweep_op(*st, r));
      walls.push_back(now_s() - t0);
      if (st->cluster->makespan() != makespan0) {
        res.fail();  // the virtual timeline must repeat exactly
      }
    }
    return walls;
  };
  const double tokens = static_cast<double>(kTokensPerRank * kWorld);

  std::vector<OpOut> outs;
  if (!opt.trace) {
    const auto walls = loop(opt.seconds, nullptr, &outs);
    res.metric("tok_per_s", tokens / mean(walls), "tok/s");
    res.metric("op_ms_p50", median(walls) * 1e3, "ms");
    res.note("sweeps measured: " + std::to_string(walls.size()) +
             ", IQR/median = " + std::to_string(quartiles(walls).iqr_frac()));
    return;
  }

  SpanRecorder rec;
  const auto plain = loop(opt.seconds / 2, nullptr, &outs);
  outs.clear();
  const auto traced = loop(opt.seconds / 2, &rec, &outs);
  const double whole_s = median(traced);
  res.metric("trace.overhead_frac", whole_s / median(plain) - 1.0, "frac");

  std::uint64_t bytes = 0;
  std::uint64_t intra = 0;
  std::uint64_t inter = 0;
  std::uint64_t msgs = 0;
  std::uint64_t peak_mem = 0;
  for (const auto& s : st->cluster->stats()) {
    bytes += s.bytes_sent;
    intra += s.bytes_sent_intra;
    inter += s.bytes_sent_inter;
    msgs += s.messages_sent;
    peak_mem = std::max(peak_mem, s.peak_mem_bytes);
  }
  std::vector<double> send_ms;
  std::vector<double> recv_ms;
  std::uint64_t retries = 0;
  for (const OpOut& o : outs) {
    send_ms.push_back(mean(o.send_s) * 1e3);
    recv_ms.push_back(mean(o.recv_s) * 1e3);
    for (auto r : o.retries) {
      retries += r;
    }
  }
  res.metric("comm.bytes_per_step", static_cast<double>(bytes), "B");
  res.metric("comm.bytes_intra_per_step", static_cast<double>(intra), "B");
  res.metric("comm.bytes_inter_per_step", static_cast<double>(inter), "B");
  res.metric("comm.messages_per_step", static_cast<double>(msgs), "count");
  res.metric("comm.retries", static_cast<double>(retries), "count");
  res.metric("comm.send_ms", median(send_ms), "ms");
  res.metric("comm.recv_wait_ms", median(recv_ms), "ms");
  res.metric("sim.virtual_step_ms", st->cluster->makespan() * 1e3, "virt_ms");
  double compute_s = 0.0;
  double comm_s = 0.0;
  for (const auto& e : virt.events()) {
    (e.stream == burst::sim::kCompute ? compute_s : comm_s) += e.end_s - e.begin_s;
  }
  res.metric("sim.compute_virtual_ms", compute_s * 1e3 / kWorld, "virt_ms");
  res.metric("sim.comm_virtual_ms", comm_s * 1e3 / kWorld, "virt_ms");
  res.metric("sim.peak_device_mem_mb", static_cast<double>(peak_mem) / 1e6, "MB");
  res.metric("sim.wall_us_per_message", whole_s * 1e6 / static_cast<double>(msgs),
             "us");
  res.metric("sim.wire_gb_per_s", static_cast<double>(bytes) / whole_s / 1e9,
             "GB/s");
  // Host bytes one sweep holds at its peak, per modeled byte of the shards
  // the ranks own (K, V, Q, dO, dQ and the two vectors, on every rank).
  const double owned = static_cast<double>(kWorld * (5 * kShardBytes + 2 * kVecBytes));
  res.metric("sim.host_bytes_per_wire_byte", rss_delta_b / owned, "B/B");

  Breakdown b(whole_s * 1e3);
  b.part("comm.send", median(send_ms));
  b.part("comm.recv_wait", median(recv_ms));
  report_breakdown(res, b);
  write_trace(opt, res, rec, &virt);
}

}  // namespace perfbench
