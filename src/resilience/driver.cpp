#include "resilience/driver.hpp"
// burst-lint: allow-file(no-direct-cluster) hosting boundary: constructs clusters and wraps each rank in a SimTransport before protocol code runs

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "obs/metrics.hpp"

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
/// Models snapshot save/restore I/O time on the virtual clock.
constexpr double kDiskBandwidthBytesPerS = 2e9;

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
  auto cluster = std::make_unique<Cluster>(cfg.cluster);
  std::vector<int> dead_ranks;

  ResilienceReport rep;
  rep.final_world_size = cluster->world_size();
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

  std::uint64_t step = 0;
  while (step < static_cast<std::uint64_t>(cfg.total_steps)) {
    const Tensor tokens =
        make_markov_sequence(data_rng, cfg.seq_len, cfg.dist.model.vocab);

    double loss = 0.0;
    ModelGrads grads;
    std::mutex mu;
    try {
      cluster->run([&](DeviceContext& ctx) {
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
    } catch (const std::exception& e) {
      const double t_attempt_begin = t_virtual;
      const double failed_makespan = cluster->makespan();
      t_virtual += failed_makespan;
      rep.wasted_virtual_time_s += failed_makespan;

      ++rep.recoveries;
      if (rep.recoveries > cfg.max_recoveries) {
        throw;
      }

      // Detection latency: the failing rank stopped at its crash point; the
      // survivors kept going until the abort reached every blocked receive.
      const int failed_rank = cluster->last_failure_rank();
      const double fail_point =
          failed_rank >= 0 && failed_rank < cluster->world_size()
              ? cluster->stats()[static_cast<std::size_t>(failed_rank)]
                    .elapsed_s
              : 0.0;
      const double detect = std::max(0.0, failed_makespan - fail_point);
      trace_event(cfg,
                  "recovery:detect(step=" + std::to_string(step) +
                      ",rank=" + std::to_string(failed_rank) + ")",
                  t_attempt_begin + fail_point, t_virtual);

      // Restore the latest valid snapshot.
      TrainSnapshot snap = snaps.load_latest();
      const double restore = static_cast<double>(snapshot_bytes(snap)) /
                             kDiskBandwidthBytesPerS;
      trace_event(cfg,
                  "recovery:restore(from=" + std::to_string(snap.step) + ")",
                  t_virtual, t_virtual + restore);
      t_virtual += restore;
      rep.wasted_virtual_time_s += restore;

      RecoveryEvent event;
      event.failed_step = step;
      event.resumed_from_step = snap.step;
      event.lost_steps = static_cast<int>(step - snap.step);
      event.failed_rank = failed_rank;
      event.cause = e.what();
      event.cause_code = error_code_of(e);
      event.detect_latency_s = detect;
      event.restore_time_s = restore;
      if (obs::Registry* reg = cfg.cluster.metrics) {
        reg->counter(obs::labeled("resilience.recoveries",
                                  {{"code", event.cause_code}}))
            .add(1);
        reg->histogram("resilience.detect_latency_s").observe(detect);
        reg->histogram("resilience.restore_time_s").observe(restore);
      }
      rep.events.push_back(std::move(event));

      weights = std::move(snap.weights);
      opt.restore_state(snap.adam);
      data_rng.restore_state(snap.data_rng);
      step = snap.step;

      if (dynamic_cast<const comm::CommError*>(&e) != nullptr) {
        // A corrupted or lost-beyond-retry link: model the operator
        // replacing/rerouting it, so the replay does not hit the same wire
        // fault forever.
        sim::FaultPlan healed = cluster->config().faults;
        healed.drops.clear();
        healed.duplicates.clear();
        healed.corruptions.clear();
        cluster->set_faults(std::move(healed));
      }

      const bool rank_died =
          dynamic_cast<const sim::InjectedFaultError*>(&e) != nullptr ||
          dynamic_cast<const sim::DeviceOomError*>(&e) != nullptr;
      if (rank_died && failed_rank >= 0) {
        dead_ranks.push_back(failed_rank);
      }
      if (cfg.remap_on_failure && rank_died) {
        const int survivors =
            cfg.cluster.topo.world_size() -
            static_cast<int>(dead_ranks.size());
        if (survivors < 1) {
          throw;
        }
        const int new_g = feasible_world_size(cfg.dist, cfg.seq_len,
                                              survivors);
        // Weights are replicated, so shrinking the world is pure
        // re-sharding: build a fresh cluster on the survivors (faults were
        // scheduled against the original topology, so they do not carry
        // over) and continue.
        sim::Cluster::Config cc = cfg.cluster;
        sim::Topology topo = sim::Topology::single_node(new_g);
        topo.intra = cfg.cluster.topo.intra;
        topo.inter = cfg.cluster.topo.inter;
        cc.topo = topo;
        cc.faults = sim::FaultPlan{};
        cluster = std::make_unique<Cluster>(cc);
        rep.final_world_size = new_g;
        trace_event(cfg, "recovery:remap(world=" + std::to_string(new_g) + ")",
                    t_virtual, t_virtual);
      }
      continue;
    }

    // Step committed.
    const double makespan = cluster->makespan();
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
        step < static_cast<std::uint64_t>(cfg.total_steps)) {
      snapshot_now(step);
    }
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
