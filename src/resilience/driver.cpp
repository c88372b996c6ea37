#include "resilience/driver.hpp"
// burst-lint: allow-file(no-direct-cluster) hosting boundary: constructs clusters and wraps each rank in a SimTransport before protocol code runs

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "resilience/supervisor.hpp"

namespace burst::resilience {

using model::AdamOptimizer;
using model::ModelGrads;
using model::ModelWeights;
using sim::Cluster;
using sim::DeviceContext;
using tensor::Rng;
using tensor::Tensor;

tensor::Tensor make_markov_sequence(Rng& rng, std::int64_t n,
                                    std::int64_t vocab) {
  Tensor t(n + 1);
  std::int64_t cur = rng.next_index(vocab);
  for (std::int64_t i = 0; i <= n; ++i) {
    t[i] = static_cast<float>(cur);
    cur = rng.next_uniform() < 0.9 ? (3 * cur + 7) % vocab
                                   : rng.next_index(vocab);
  }
  return t;
}

int feasible_world_size(const model::DistTrainConfig& cfg,
                        std::int64_t seq_len, int max_g) {
  for (int g = max_g; g >= 1; --g) {
    const std::int64_t chunk =
        cfg.balance == core::Balance::kZigzag ? 2 * g : g;
    if (seq_len % chunk != 0) {
      continue;
    }
    // Head parallelism: the head group must tile the world and the heads.
    const int gh = model::head_group_size(cfg, g);
    if (g % gh != 0 || cfg.model.heads % gh != 0) {
      continue;
    }
    return g;
  }
  return 1;
}

namespace {

/// Snapshots retained on disk (older ones are pruned).
constexpr int kKeepLast = 3;
/// Seed of the synthetic training stream.
constexpr std::uint64_t kDataSeed = 1234;

/// Supervisor-track events (pid one past the last device rank).
void trace_event(const ResilienceConfig& cfg, const std::string& name,
                 double begin_s, double end_s) {
  if (auto* trace = cfg.cluster.trace) {
    trace->record(cfg.cluster.topo.world_size(), sim::kCompute, name, begin_s,
                  end_s);
  }
}

}  // namespace

ResilienceReport resilient_train_loop(const ResilienceConfig& cfg,
                                      const ModelWeights& init) {
  if (cfg.snapshot_dir.empty()) {
    throw std::invalid_argument("ResilienceConfig::snapshot_dir is required");
  }

  ModelWeights weights = init;
  AdamOptimizer opt(weights, cfg.adam);
  Rng data_rng(kDataSeed);
  SnapshotManager snaps(cfg.snapshot_dir, kKeepLast);
  snaps.require_empty();
  int dead_ranks = 0;

  ResilienceReport rep;
  rep.final_world_size = cfg.cluster.topo.world_size();
  rep.losses.assign(static_cast<std::size_t>(cfg.total_steps), 0.0);

  double t_virtual = 0.0;
  std::uint64_t high_water = 0;  // steps ever committed (for re-work waste)

  const auto snapshot_now = [&](std::uint64_t step) {
    TrainSnapshot snap;
    snap.step = step;
    snap.data_cursor = step;
    snap.data_rng = data_rng.save_state();
    snap.weights = weights;
    snap.adam = opt.export_state();
    const std::uint64_t bytes = snaps.save(snap);
    const double io = static_cast<double>(bytes) / kDiskBandwidthBytesPerS;
    trace_event(cfg, "snapshot:save(step=" + std::to_string(step) + ")",
                t_virtual, t_virtual + io);
    t_virtual += io;
    rep.snapshot_io_time_s += io;
    ++rep.snapshots_taken;
    if (obs::Registry* reg = cfg.cluster.metrics) {
      reg->counter("resilience.snapshots_taken").add(1);
    }
  };
  snapshot_now(0);

  const auto total = static_cast<std::uint64_t>(cfg.total_steps);
  std::uint64_t step = 0;
  // One attempt is one training step; it commits (optimizer step, snapshot)
  // only after every rank finished.
  const auto train_step = [&](Cluster& cluster) {
    const Tensor tokens =
        make_markov_sequence(data_rng, cfg.seq_len, cfg.dist.model.vocab);
    double loss = 0.0;
    ModelGrads grads;
    std::mutex mu;
    cluster.run([&](DeviceContext& ctx) {
      ctx.begin_step(static_cast<std::int64_t>(step));
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      auto r = model::dist_train_step(comm, cfg.dist, weights, tokens);
      if (ctx.rank() == 0) {
        std::lock_guard lock(mu);
        loss = r.loss;
        grads = std::move(r.grads);
      }
    });

    const double makespan = cluster.makespan();
    t_virtual += makespan;
    if (step < high_water) {
      rep.wasted_virtual_time_s += makespan;  // replay of lost work
    }
    opt.step(weights, grads);
    rep.losses[static_cast<std::size_t>(step)] = loss;
    rep.final_loss = loss;
    ++step;
    high_water = std::max(high_water, step);
    rep.steps_completed = static_cast<int>(high_water);
    if (cfg.snapshot_interval > 0 && step % cfg.snapshot_interval == 0 &&
        step < total) {
      snapshot_now(step);
    }
    return step >= total;
  };

  // Restores the latest valid snapshot and, with remap_on_failure, shrinks
  // the world onto the survivors.
  const auto recover = [&](const Failure& f, Cluster::Config& next) {
    const double t_attempt_begin = t_virtual;
    t_virtual += f.detected_at_s();
    rep.wasted_virtual_time_s += f.detected_at_s();
    ++rep.recoveries;
    trace_event(cfg,
                "recovery:detect(step=" + std::to_string(step) +
                    ",rank=" + std::to_string(f.rank) + ")",
                t_attempt_begin + f.time_s, t_virtual);

    TrainSnapshot snap = snaps.load_latest();
    const double restore = static_cast<double>(snapshot_bytes(snap)) /
                           kDiskBandwidthBytesPerS;
    trace_event(cfg,
                "recovery:restore(from=" + std::to_string(snap.step) + ")",
                t_virtual, t_virtual + restore);
    t_virtual += restore;
    rep.wasted_virtual_time_s += restore;

    rep.events.push_back({.failed_step = step,
                          .resumed_from_step = snap.step,
                          .lost_steps = static_cast<int>(step - snap.step),
                          .failed_rank = f.rank,
                          .cause = f.error.what(),
                          .cause_code = f.error.code_name(),
                          .detect_latency_s = f.detect_latency_s,
                          .restore_time_s = restore});
    if (obs::Registry* reg = cfg.cluster.metrics) {
      reg->counter(obs::labeled("resilience.recoveries",
                                {{"code", f.error.code_name()}}))
          .add(1);
      reg->histogram("resilience.detect_latency_s")
          .observe(f.detect_latency_s);
      reg->histogram("resilience.restore_time_s").observe(restore);
    }

    weights = std::move(snap.weights);
    opt.restore_state(snap.adam);
    data_rng.restore_state(snap.data_rng);
    step = snap.step;

    if (cfg.remap_on_failure && f.crashed) {
      const int survivors = cfg.cluster.topo.world_size() - ++dead_ranks;
      if (survivors < 1) {
        throw;  // the failure being handled: nobody is left to train
      }
      // Weights are replicated, so shrinking the world is pure re-sharding.
      rep.final_world_size =
          feasible_world_size(cfg.dist, cfg.seq_len, survivors);
      shrink_world(next, rep.final_world_size);
      trace_event(cfg,
                  "recovery:remap(world=" +
                      std::to_string(rep.final_world_size) + ")",
                  t_virtual, t_virtual);
    }
  };

  if (step < total) {
    supervise(cfg.cluster, cfg.max_recoveries, train_step, recover);
  }

  rep.virtual_time_s = t_virtual;
  rep.final_weights = std::move(weights);
  return rep;
}

obs::RunReport to_run_report(const ResilienceConfig& cfg,
                             const ResilienceReport& rep) {
  obs::RunReport out("training", "resilient_train_loop");
  out.config("world_size", cfg.cluster.topo.world_size());
  out.config("total_steps", cfg.total_steps);
  out.config("snapshot_interval", cfg.snapshot_interval);
  out.config("seq_len", cfg.seq_len);
  out.config("remap_on_failure", cfg.remap_on_failure);
  out.measurement("steps_completed", rep.steps_completed);
  out.measurement("recoveries", rep.recoveries);
  out.measurement("snapshots_taken", rep.snapshots_taken);
  out.measurement("final_world_size", rep.final_world_size);
  out.measurement("virtual_time_s", rep.virtual_time_s,
                  obs::RunReport::kNoPaperValue, "s");
  out.measurement("wasted_virtual_time_s", rep.wasted_virtual_time_s,
                  obs::RunReport::kNoPaperValue, "s");
  out.measurement("snapshot_io_time_s", rep.snapshot_io_time_s,
                  obs::RunReport::kNoPaperValue, "s");
  out.measurement("final_loss", rep.final_loss);
  for (std::size_t i = 0; i < rep.events.size(); ++i) {
    const RecoveryEvent& ev = rep.events[i];
    out.config("recovery." + std::to_string(i),
               ev.cause_code + " at step " + std::to_string(ev.failed_step) +
                   " (rank " + std::to_string(ev.failed_rank) + ", lost " +
                   std::to_string(ev.lost_steps) + " steps)");
  }
  if (cfg.cluster.metrics != nullptr) {
    out.attach_registry(*cfg.cluster.metrics);
  }
  out.check(rep.steps_completed == cfg.total_steps,
            "all configured steps committed");
  out.check(rep.recoveries <= cfg.max_recoveries,
            "recovery budget not exceeded");
  return out;
}

}  // namespace burst::resilience
