// The two training workloads.
//
// train_1dev: serial_train_step + AdamOptimizer::step at N=1024 on one
//   device, kernel pool at nproc threads, no comm or simulator. Compute
//   bound: attention forward/backward, the fused LM head and the GEMMs.
// train_cp4: dist_train_step on a simulated 2 nodes x 2 GPUs cluster at
//   global N=2048 (512 tokens per rank): BurstAttention backward, zigzag
//   balance, topology-aware double ring, overlap, sequence-level selective
//   checkpointing at 0.5, fused LM head and gradient all-reduce, then one
//   Adam step. Kernel pool at 1 thread: the four rank threads fill the cores.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "core/checkpoint.hpp"
#include "core/dist_attention.hpp"
#include "kernels/flash_attention.hpp"
#include "model/dist_model.hpp"
#include "model/optimizer.hpp"
#include "model/transformer.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "replay.hpp"
#include "sim/cluster.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "timed_transport.hpp"

namespace perfbench {

namespace {

using burst::kernels::IndexMap;
using burst::kernels::KernelStats;
using burst::kernels::MaskSpec;
using burst::model::AdamConfig;
using burst::model::AdamOptimizer;
using burst::model::ModelConfig;
using burst::model::ModelGrads;
using burst::model::ModelWeights;
using burst::tensor::Tensor;

constexpr int kSequences = 4;
constexpr int kMinSteps = 3;

// Program state a training workload sets up: weights, optimizer and the
// seeded token sequences the steps cycle through.
struct TrainState {
  ModelWeights weights;
  std::unique_ptr<AdamOptimizer> adam;
  std::vector<Tensor> seqs;  // each holds N+1 token ids
};

std::unique_ptr<TrainState> make_state(const ModelConfig& cfg,
                                       std::uint64_t seed, std::int64_t n) {
  auto st = std::make_unique<TrainState>();
  st->weights = ModelWeights::init(cfg, seed);
  st->adam = std::make_unique<AdamOptimizer>(st->weights, AdamConfig{});
  burst::tensor::Rng rng(seed ^ 0x5eedf00dull);
  for (int i = 0; i < kSequences; ++i) {
    st->seqs.push_back(rng.token_ids(n + 1, cfg.vocab));
  }
  return st;
}

// Runs `op(i)` until `seconds` have passed (and at least kMinSteps times);
// returns each call's wall seconds.
std::vector<double> timed_loop(double seconds,
                               const std::function<void(int)>& op) {
  std::vector<double> out;
  const double t_end = now_s() + seconds;
  for (int i = 0; static_cast<int>(out.size()) < kMinSteps || now_s() < t_end;
       ++i) {
    out.push_back(time_s([&] { op(i); }));
  }
  return out;
}

float max_grad_diff(const ModelGrads& a, const ModelGrads& b) {
  using burst::tensor::max_abs_diff;
  float m = std::max(max_abs_diff(a.w_embed, b.w_embed),
                     max_abs_diff(a.w_head, b.w_head));
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const auto& x = a.layers[l];
    const auto& y = b.layers[l];
    for (float d : {max_abs_diff(x.wq, y.wq), max_abs_diff(x.wk, y.wk),
                    max_abs_diff(x.wv, y.wv), max_abs_diff(x.wo, y.wo),
                    max_abs_diff(x.w1, y.w1), max_abs_diff(x.w2, y.w2)}) {
      m = std::max(m, d);
    }
  }
  return m;
}

// End-to-end metrics of a training loop: tokens per wall second over the
// whole measured loop and the median step time.
void report_train_e2e(Result& res, std::int64_t n,
                      const std::vector<double>& step_s) {
  res.metric("tok_per_s", static_cast<double>(n) / mean(step_s), "tok/s");
  res.metric("op_ms_p50", median(step_s) * 1e3, "ms");
  const Quartiles q = quartiles(step_s);
  res.note("steps measured: " + std::to_string(step_s.size()) +
           ", step IQR/median = " + std::to_string(q.iqr_frac()));
  if (const auto t = tail(step_s)) {
    res.note("step tail " + t->label + " = " + std::to_string(t->value * 1e3) +
             " ms");
  } else {
    res.note("step tail: too few samples for a tail percentile");
  }
}

// Attention-forward replay time at `threads` pool workers.
double attn_fwd_ms_at(const ModelConfig& cfg, const std::vector<AttnPair>& pairs,
                      std::size_t threads, std::uint64_t seed) {
  burst::parallel::ThreadPool::reset_global(threads);
  return replay_attention_forward(cfg, pairs, seed, nullptr, nullptr).ms;
}

// Kernel-level per-layer metrics shared by both training workloads.
struct KernelReplays {
  Replayed gemm, attn_fwd, attn_bwd, lm_head;
};

KernelReplays replay_kernels(Result& res, const ModelConfig& cfg,
                             std::int64_t rows, bool recompute,
                             const std::vector<AttnPair>& fwd_pairs,
                             const std::vector<AttnPair>& bwd_pairs,
                             std::uint64_t seed, SpanRecorder* rec) {
  burst::obs::Registry reg;
  burst::kernels::attach_attention_metrics(&reg);
  KernelStats fwd_stats;
  KernelReplays k;
  k.gemm = replay_train_gemms(cfg, rows, recompute, seed + 1, rec);
  k.attn_fwd = replay_attention_forward(cfg, fwd_pairs, seed + 2, rec, &fwd_stats);
  k.attn_bwd = replay_attention_backward(cfg, bwd_pairs, seed + 3, rec, nullptr);
  k.lm_head = replay_lm_head(cfg, rows, seed + 4, rec);
  burst::kernels::attach_attention_metrics(nullptr);

  res.metric("tensor.gemm_ms", k.gemm.ms, "ms");
  res.metric("tensor.gemm_gflops", k.gemm.gflops(), "GFLOP/s");
  res.metric("kernels.attn_fwd_ms", k.attn_fwd.ms, "ms");
  res.metric("kernels.attn_fwd_gflops", k.attn_fwd.gflops(), "GFLOP/s");
  res.metric("kernels.attn_bwd_ms", k.attn_bwd.ms, "ms");
  res.metric("kernels.attn_bwd_gflops", k.attn_bwd.gflops(), "GFLOP/s");
  res.metric("kernels.lm_head_ms", k.lm_head.ms, "ms");
  res.metric("kernels.lm_head_gflops", k.lm_head.gflops(), "GFLOP/s");
  const double tiles = static_cast<double>(fwd_stats.tiles_computed +
                                           fwd_stats.tiles_skipped);
  res.metric("kernels.attn_tiles_skipped_frac",
             tiles > 0 ? static_cast<double>(fwd_stats.tiles_skipped) / tiles
                       : 0.0,
             "frac");
  res.metric("kernels.workspace_high_water_bytes",
             reg.gauge("kernels.workspace.high_water_bytes").value(), "B");
  return k;
}

// Thread scaling of the attention forward on one layer of the workload's
// shapes: time at 1 pool thread over time at nproc. Restores `pool_after`.
void report_thread_scaling(Result& res, const ModelConfig& cfg,
                           const std::vector<AttnPair>& pairs,
                           const Options& opt, std::size_t pool_after) {
  ModelConfig one = cfg;
  one.layers = 1;
  const double t1 = attn_fwd_ms_at(one, pairs, 1, opt.seed);
  const double tn = attn_fwd_ms_at(one, pairs, opt.nproc, opt.seed);
  burst::parallel::ThreadPool::reset_global(pool_after);
  res.metric("kernels.attn_thread_scaling", tn > 0 ? t1 / tn : 0.0, "x");
}

}  // namespace

void run_train_1dev(const Options& opt, Result& res) {
  const ModelConfig cfg = bench_model();
  const std::int64_t n = 1024;
  const MaskSpec mask = MaskSpec::causal();
  pin_pool(opt.nproc, opt, res);
  res.note("train_1dev: serial_train_step + Adam, N=" + std::to_string(n) +
           ", L=4 d=256 h=8 V=2048 d_ff=688, RoPE, causal");

  std::unique_ptr<TrainState> st;
  res.metric("setup_s",
             median_setup_s([&] { st = make_state(cfg, opt.seed, n); }),
             "s");

  // Step 0: the loss is finite and equals the forward-only loss on the
  // same weights. The step also warms caches before timing.
  {
    res.attempt();
    const auto r0 = burst::model::serial_train_step(cfg, st->weights,
                                                    st->seqs[0], mask);
    const double l0 = burst::model::serial_loss(cfg, st->weights, st->seqs[0],
                                                mask);
    const bool ok = res.check(std::isfinite(r0.loss) && r0.loss == l0,
                              "train_1dev step-0 loss finite and equal to "
                              "serial_loss");
    if (!ok) {
      res.fail();
    }
    res.note("step-0 loss " + std::to_string(r0.loss) + ", serial_loss " +
             std::to_string(l0));
    st->adam->step(st->weights, r0.grads);
  }

  SpanRecorder rec;
  SpanRecorder* trace = opt.trace ? &rec : nullptr;
  std::vector<double> step_ms;
  std::vector<double> adam_ms;
  const auto one_step = [&](int i, SpanRecorder* r) {
    ScopedSpan op(r, "op.train_step");
    const Tensor& tokens = st->seqs[static_cast<std::size_t>((i + 1) % kSequences)];
    res.attempt();
    burst::model::TrainStepResult out;
    const double t0 = now_s();
    {
      ScopedSpan s(r, "model.serial_train_step");
      out = burst::model::serial_train_step(cfg, st->weights, tokens, mask);
    }
    const double t1 = now_s();
    {
      ScopedSpan s(r, "model.adam_step");
      st->adam->step(st->weights, out.grads);
    }
    step_ms.push_back((t1 - t0) * 1e3);
    adam_ms.push_back((now_s() - t1) * 1e3);
    if (!std::isfinite(out.loss)) {
      res.fail();
    }
  };

  if (!opt.trace) {
    const auto op_s = timed_loop(opt.seconds, [&](int i) { one_step(i, nullptr); });
    report_train_e2e(res, n, op_s);
    return;
  }

  // Traced run: half the time untraced, half traced (the difference is the
  // tracing overhead), then per-layer replays at the step's shapes.
  const auto plain_s = timed_loop(opt.seconds / 2, [&](int i) { one_step(i, nullptr); });
  step_ms.clear();
  adam_ms.clear();
  const auto traced_s = timed_loop(opt.seconds / 2, [&](int i) { one_step(i, trace); });
  res.metric("trace.overhead_frac", median(traced_s) / median(plain_s) - 1.0,
             "frac");
  res.metric("model.step_ms", median(step_ms), "ms");
  res.metric("model.adam_ms", median(adam_ms), "ms");
  {
    std::vector<double> fwd;
    for (int i = 0; i < 2; ++i) {
      const double t0 = now_s();
      ScopedSpan s(trace, "model.serial_loss");
      burst::model::serial_loss(cfg, st->weights, st->seqs[0], mask);
      fwd.push_back((now_s() - t0) * 1e3);
    }
    res.metric("model.fwd_ms", median(fwd), "ms");
  }

  const std::vector<AttnPair> pairs = {{IndexMap::range(0, n), IndexMap::range(0, n)}};
  const KernelReplays k =
      replay_kernels(res, cfg, n, /*recompute=*/false, pairs, pairs, opt.seed, trace);
  report_thread_scaling(res, cfg, pairs, opt, opt.nproc);

  Breakdown b(median(traced_s) * 1e3);
  b.part("tensor.gemm", k.gemm.ms);
  b.part("kernels.attn_fwd", k.attn_fwd.ms);
  b.part("kernels.attn_bwd", k.attn_bwd.ms);
  b.part("kernels.lm_head", k.lm_head.ms);
  b.part("model.adam", median(adam_ms));
  report_breakdown(res, b);
  write_trace(opt, res, rec, nullptr);
}

namespace {

// One distributed step's observations.
struct RankOut {
  double wall_s = 0.0;
  double send_s = 0.0;
  double recv_s = 0.0;
  std::uint64_t retries = 0;
};

struct DistOut {
  double loss = 0.0;
  ModelGrads grads;  // rank 0's (all-reduced: identical on every rank)
  std::vector<RankOut> ranks;
  std::vector<burst::sim::DeviceStats> stats;
  double makespan_s = 0.0;
};

DistOut dist_step(burst::sim::Cluster& cluster,
                  const burst::model::DistTrainConfig& cfg,
                  const ModelWeights& w, const Tensor& tokens, bool timed,
                  SpanRecorder* rec) {
  DistOut out;
  out.ranks.resize(static_cast<std::size_t>(cluster.world_size()));
  std::mutex mu;
  cluster.run([&](burst::sim::DeviceContext& ctx) {
    ScopedSpan span(rec, "model.dist_train_step");
    const double t0 = now_s();
    burst::comm::SimTransport sim_tp(ctx);
    TimedTransport timed_tp(sim_tp);
    burst::comm::Transport& tp =
        timed ? static_cast<burst::comm::Transport&>(timed_tp) : sim_tp;
    burst::comm::Communicator comm(tp);
    auto r = burst::model::dist_train_step(comm, cfg, w, tokens);
    RankOut& ro = out.ranks[static_cast<std::size_t>(ctx.rank())];
    ro.wall_s = now_s() - t0;
    ro.send_s = timed_tp.send_s();
    ro.recv_s = timed_tp.recv_s();
    ro.retries = comm.retries();
    if (ctx.rank() == 0) {
      std::lock_guard lock(mu);
      out.loss = r.loss;
      out.grads = std::move(r.grads);
    }
  });
  out.stats = cluster.stats();
  out.makespan_s = cluster.makespan();
  return out;
}

std::uint64_t total_bytes(const DistOut& d) {
  std::uint64_t b = 0;
  for (const auto& s : d.stats) {
    b += s.bytes_sent;
  }
  return b;
}

// Closed-form wire bytes of one train_cp4 step, summed over ranks, at
// 2 bytes per element. Per rank, per layer and head:
//   forward K/V sweep            (G-1) * 2*n*dh
//   checkpoint recompute sweep   (G-1) * 2*n*dh   (every rank feeds the ring)
//   BurstAttention backward      (G-1) * (2*n*dh + 2*n)  +  G * n*dh  (dQ)
// plus the loss all-reduce (G-1) * 1 and the flat gradient all-reduce
// (G-1) * params.
std::uint64_t closed_form_step_bytes(const ModelConfig& m, std::int64_t n_global,
                                     std::int64_t g) {
  const std::int64_t n = n_global / g;
  const std::int64_t dh = m.head_dim();
  const std::int64_t per_head = (g - 1) * 2 * n * dh + (g - 1) * 2 * n * dh +
                                (g - 1) * (2 * n * dh + 2 * n) + g * n * dh;
  const std::int64_t params =
      m.layers * (4 * m.d_model * m.d_model + 2 * m.d_model * m.d_ff) +
      2 * m.vocab * m.d_model;
  const std::int64_t per_rank =
      m.layers * m.heads * per_head + (g - 1) * 1 + (g - 1) * params;
  return static_cast<std::uint64_t>(2 * per_rank * g);
}

}  // namespace

void run_train_cp4(const Options& opt, Result& res) {
  burst::model::DistTrainConfig cfg;
  cfg.model = bench_model();
  cfg.mask = MaskSpec::causal();
  cfg.impl = burst::model::AttnImpl::kBurst;
  cfg.balance = burst::core::Balance::kZigzag;
  cfg.topo_aware = true;
  cfg.overlap = true;
  cfg.ckpt = burst::core::CkptConfig{burst::core::CkptStrategy::kSeqSelective, 0.5};
  cfg.fused_lm_head = true;
  cfg.sync_grads = true;
  const std::int64_t n = 2048;
  const int nodes = 2;
  const int gpus = 2;
  const int g = nodes * gpus;
  res.note("train_cp4: dist_train_step (Burst, zigzag, double ring, overlap, "
           "seq-selective ckpt 0.5, fused LM head, grad all-reduce) + Adam on "
           "2x2 simulated GPUs, global N=" + std::to_string(n));

  burst::sim::TraceRecorder virt;
  std::unique_ptr<TrainState> st;
  std::unique_ptr<burst::sim::Cluster> cluster;
  res.metric("setup_s", median_setup_s([&] {
               st = make_state(cfg.model, opt.seed, n);
               burst::sim::Cluster::Config cc;
               cc.topo = burst::sim::Topology::multi_node(nodes, gpus);
               cc.trace = opt.trace ? &virt : nullptr;
               cluster = std::make_unique<burst::sim::Cluster>(cc);
             }),
             "s");

  // Step-0 checks, against the serial reference at the same weights (the
  // reference runs on the full pool; the workload itself runs on one
  // thread per rank).
  const std::uint64_t expected_bytes = closed_form_step_bytes(cfg.model, n, g);
  {
    pin_pool(opt.nproc, opt, res);
    const auto serial = burst::model::serial_train_step(
        cfg.model, st->weights, st->seqs[0], cfg.mask);
    pin_pool(1, opt, res);
    const DistOut plain =
        dist_step(*cluster, cfg, st->weights, st->seqs[0], false, nullptr);
    virt.clear();
    const DistOut timed =
        dist_step(*cluster, cfg, st->weights, st->seqs[0], true, nullptr);
    res.attempt();
    bool ok = res.check(std::abs(timed.loss - serial.loss) <= 1e-4,
                        "train_cp4 step-0 loss matches serial_train_step");
    const float gdiff = max_grad_diff(timed.grads, serial.grads);
    ok &= res.check(gdiff < 2e-3f,
                    "train_cp4 step-0 gradients match serial_train_step");
    ok &= res.check(total_bytes(timed) == expected_bytes,
                    "train_cp4 wire bytes equal the closed-form volume");
    ok &= res.check(timed.loss == plain.loss &&
                        total_bytes(timed) == total_bytes(plain) &&
                        timed.makespan_s == plain.makespan_s &&
                        max_grad_diff(timed.grads, plain.grads) == 0.0f,
                    "timing Transport decorator is pass-through (loss, bytes, "
                    "virtual makespan, gradients bitwise equal)");
    if (!ok) {
      res.fail();
    }
    res.note("step-0 loss dist " + std::to_string(timed.loss) + " serial " +
             std::to_string(serial.loss) + ", max |grad diff| " +
             std::to_string(gdiff) + ", bytes " +
             std::to_string(total_bytes(timed)) + " (closed form " +
             std::to_string(expected_bytes) + ")");
    st->adam->step(st->weights, timed.grads);
  }

  SpanRecorder rec;
  SpanRecorder* trace = opt.trace ? &rec : nullptr;
  DistOut last;
  std::vector<double> adam_ms;
  std::vector<double> step_ms;
  std::vector<double> send_ms;
  std::vector<double> recv_ms;
  std::vector<double> imbalance;
  const auto one_step = [&](int i, SpanRecorder* r) {
    ScopedSpan op(r, "op.train_step");
    const Tensor& tokens = st->seqs[static_cast<std::size_t>((i + 1) % kSequences)];
    res.attempt();
    virt.clear();  // keep only the newest step's virtual spans
    const double t0 = now_s();
    last = dist_step(*cluster, cfg, st->weights, tokens, true, r);
    const double t1 = now_s();
    {
      ScopedSpan s(r, "model.adam_step");
      st->adam->step(st->weights, last.grads);
    }
    step_ms.push_back((t1 - t0) * 1e3);
    adam_ms.push_back((now_s() - t1) * 1e3);
    double snd = 0.0;
    double rcv = 0.0;
    double busy_max = 0.0;
    double busy_sum = 0.0;
    for (const RankOut& ro : last.ranks) {
      snd += ro.send_s;
      rcv += ro.recv_s;
      const double busy = ro.wall_s - ro.recv_s;
      busy_max = std::max(busy_max, busy);
      busy_sum += busy;
    }
    send_ms.push_back(snd * 1e3 / g);
    recv_ms.push_back(rcv * 1e3 / g);
    imbalance.push_back(busy_max / (busy_sum / g));
    if (!std::isfinite(last.loss) || total_bytes(last) != expected_bytes) {
      res.fail();
    }
  };

  if (!opt.trace) {
    const auto op_s = timed_loop(opt.seconds, [&](int i) { one_step(i, nullptr); });
    report_train_e2e(res, n, op_s);
    return;
  }

  const auto plain_s = timed_loop(opt.seconds / 2, [&](int i) { one_step(i, nullptr); });
  step_ms.clear();
  adam_ms.clear();
  send_ms.clear();
  recv_ms.clear();
  imbalance.clear();
  const auto traced_s = timed_loop(opt.seconds / 2, [&](int i) { one_step(i, trace); });
  res.metric("trace.overhead_frac", median(traced_s) / median(plain_s) - 1.0,
             "frac");
  res.metric("model.step_ms", median(step_ms), "ms");
  res.metric("model.adam_ms", median(adam_ms), "ms");
  res.metric("comm.send_ms", median(send_ms), "ms");
  res.metric("comm.recv_wait_ms", median(recv_ms), "ms");
  res.metric("core.rank_imbalance", median(imbalance), "x");

  // Exact counts and virtual-clock figures of the last traced step.
  std::uint64_t intra = 0;
  std::uint64_t inter = 0;
  std::uint64_t msgs = 0;
  std::uint64_t peak_mem = 0;
  for (const auto& s : last.stats) {
    intra += s.bytes_sent_intra;
    inter += s.bytes_sent_inter;
    msgs += s.messages_sent;
    peak_mem = std::max(peak_mem, s.peak_mem_bytes);
  }
  std::uint64_t retries = 0;
  for (const RankOut& ro : last.ranks) {
    retries += ro.retries;
  }
  res.metric("comm.bytes_per_step", static_cast<double>(total_bytes(last)), "B");
  res.metric("comm.bytes_intra_per_step", static_cast<double>(intra), "B");
  res.metric("comm.bytes_inter_per_step", static_cast<double>(inter), "B");
  res.metric("comm.messages_per_step", static_cast<double>(msgs), "count");
  res.metric("comm.retries", static_cast<double>(retries), "count");
  res.metric("sim.virtual_step_ms", last.makespan_s * 1e3, "virt_ms");
  res.metric("sim.peak_device_mem_mb", static_cast<double>(peak_mem) / 1e6, "MB");
  res.metric("sim.virtual_tgs",
             static_cast<double>(n) / g / last.makespan_s, "virt_tok/s/gpu");
  double compute_s = 0.0;
  double comm_s = 0.0;
  for (const auto& e : virt.events()) {
    (e.stream == burst::sim::kCompute ? compute_s : comm_s) += e.end_s - e.begin_s;
  }
  res.metric("sim.compute_virtual_ms", compute_s * 1e3 / g, "virt_ms");
  res.metric("sim.comm_virtual_ms", comm_s * 1e3 / g, "virt_ms");
  double overlap = 0.0;
  for (int r = 0; r < g; ++r) {
    overlap += virt.overlap_fraction(r) / g;
  }
  res.metric("core.overlap_frac_virtual", overlap, "frac");

  // Kernel replays at rank 0's shard shapes (zigzag maps), one thread.
  const std::int64_t n_loc = n / g;
  std::vector<IndexMap> maps;
  for (int r = 0; r < g; ++r) {
    maps.push_back(burst::model::dist_index_map(cfg, n, g, r));
  }
  std::vector<AttnPair> fwd_pairs;
  std::vector<AttnPair> bwd_pairs;
  // Rows of rank 0 recomputed in the backward (those the checkpoint does not
  // store), as one map.
  std::vector<std::pair<std::int64_t, std::int64_t>> front;
  for (std::int64_t i = 0; i < maps[0].size(); ++i) {
    const std::int64_t pos = maps[0].global(i);
    if (burst::core::stores_position(cfg.ckpt, pos, n)) {
      continue;
    }
    if (!front.empty() && front.back().first + front.back().second == pos) {
      ++front.back().second;
    } else {
      front.emplace_back(pos, 1);
    }
  }
  const IndexMap recompute_map = IndexMap::segments(front);
  for (int r = 0; r < g; ++r) {
    fwd_pairs.push_back({maps[0], maps[static_cast<std::size_t>(r)]});
    if (recompute_map.size() > 0) {
      fwd_pairs.push_back({recompute_map, maps[static_cast<std::size_t>(r)]});
    }
    bwd_pairs.push_back({maps[static_cast<std::size_t>(r)], maps[0]});
  }
  const KernelReplays k = replay_kernels(res, cfg.model, n_loc, /*recompute=*/true,
                                         fwd_pairs, bwd_pairs, opt.seed, trace);
  report_thread_scaling(res, cfg.model, fwd_pairs, opt, 1);

  // core: the distributed attention calls on the shard shapes, one layer's
  // heads timed per rank inside a cluster run, scaled to the step's layers;
  // max over ranks.
  {
    std::vector<double> fwd_ms(static_cast<std::size_t>(g), 0.0);
    std::vector<double> bwd_ms(static_cast<std::size_t>(g), 0.0);
    burst::sim::Cluster::Config cc;
    cc.topo = burst::sim::Topology::multi_node(nodes, gpus);
    burst::sim::Cluster replay_cluster(cc);
    replay_cluster.run([&](burst::sim::DeviceContext& ctx) {
      burst::comm::SimTransport tp(ctx);
      burst::comm::Communicator comm(tp);
      const auto route = burst::core::SweepRoute::double_ring(ctx.topo());
      burst::core::DistAttnConfig ac;
      ac.mask = cfg.mask;
      ac.scale = 1.0f / std::sqrt(static_cast<float>(cfg.model.head_dim()));
      ac.balance = cfg.balance;
      ac.backward = burst::core::BackwardComm::kBurst;
      ac.overlap = true;
      ac.seq_len = n;
      burst::tensor::Rng rng(opt.seed + 100 + static_cast<std::uint64_t>(ctx.rank()));
      const std::int64_t dh = cfg.model.head_dim();
      const std::size_t me = static_cast<std::size_t>(ctx.rank());
      for (std::int64_t h = 0; h < cfg.model.heads; ++h) {
        burst::core::LocalQKV local{rng.gaussian(n_loc, dh), rng.gaussian(n_loc, dh),
                                    rng.gaussian(n_loc, dh)};
        const Tensor d_out = rng.gaussian(n_loc, dh);
        double t0 = now_s();
        burst::kernels::AttnResult fwd;
        {
          ScopedSpan s(trace, "core.dist_attention_forward");
          fwd = burst::core::dist_attention_forward(comm, route, ac, local);
        }
        fwd_ms[me] += (now_s() - t0) * 1e3;
        t0 = now_s();
        {
          ScopedSpan s(trace, "core.dist_attention_backward");
          burst::core::dist_attention_backward(comm, route, ac, local, fwd, d_out);
        }
        bwd_ms[me] += (now_s() - t0) * 1e3;
      }
    });
    const double layers = static_cast<double>(cfg.model.layers);
    res.metric("core.attn_fwd_wall_ms",
               *std::max_element(fwd_ms.begin(), fwd_ms.end()) * layers, "ms");
    res.metric("core.attn_bwd_wall_ms",
               *std::max_element(bwd_ms.begin(), bwd_ms.end()) * layers, "ms");
  }

  // Per-rank breakdown of the step: replayed kernels at one rank's shapes,
  // that rank's mean time in the frame layer, and Adam.
  Breakdown b(median(traced_s) * 1e3);
  b.part("tensor.gemm", k.gemm.ms);
  b.part("kernels.attn_fwd", k.attn_fwd.ms);
  b.part("kernels.attn_bwd", k.attn_bwd.ms);
  b.part("kernels.lm_head", k.lm_head.ms);
  b.part("comm.send", median(send_ms));
  b.part("comm.recv_wait", median(recv_ms));
  b.part("model.adam", median(adam_ms));
  report_breakdown(res, b);
  write_trace(opt, res, rec, &virt);
}

}  // namespace perfbench
