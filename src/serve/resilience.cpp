#include "serve/resilience.hpp"
// burst-lint: allow-file(no-direct-cluster) hosting boundary: builds a fresh cluster per recovery attempt

#include <optional>
#include <utility>

#include "resilience/snapshot.hpp"
#include "resilience/supervisor.hpp"
#include "serve/snapshot.hpp"
#include "sim/topology.hpp"

namespace burst::serve {

namespace {

/// Durable checkpoints retained in ServeResilienceConfig::snapshot_dir.
constexpr int kKeepLast = 2;
/// Prefill retry backoff: kBackoffBaseS before the first retry, growing by
/// kBackoffMultiplier per attempt, charged as wasted virtual time.
constexpr double kBackoffBaseS = 1e-3;
constexpr double kBackoffMultiplier = 2.0;

}  // namespace

ResilientServeReport serve_with_recovery(Engine& engine,
                                         const ServeResilienceConfig& cfg) {
  sim::Cluster::Config cc;
  cc.topo = sim::Topology::single_node(1);
  cc.flops_per_s = cfg.flops_per_s;
  cc.trace = cfg.trace;
  cc.faults = cfg.faults;

  std::optional<ServeSnapshotManager> mgr;
  if (!cfg.snapshot_dir.empty()) {
    mgr.emplace(cfg.snapshot_dir, kKeepLast);
    mgr->require_empty();
  }
  std::vector<unsigned char> mem_blob;  // diskless latest checkpoint

  ResilientServeReport out;
  EngineCheckpoint resume_ck;
  bool have_ck = false;
  double resume_time = 0.0;

  const auto serve = [&](sim::Cluster& cluster) {
    cluster.run([&](sim::DeviceContext& ctx) {
      if (resume_time > 0.0) {
        ctx.clock().advance_to(sim::kCompute, resume_time);
      }
      Engine::RunOptions opts;
      if (have_ck) {
        opts.resume = &resume_ck;
      }
      opts.checkpoint_every = cfg.checkpoint_every;
      if (cfg.checkpoint_every > 0) {
        opts.on_checkpoint = [&](const EngineCheckpoint& ck,
                                 sim::DeviceContext& cctx) {
          const std::vector<unsigned char> payload = serialize_checkpoint(ck);
          const std::uint64_t bytes =
              payload.size() + resilience::kBlobHeaderBytes;
          cctx.busy(
              static_cast<double>(bytes) / resilience::kDiskBandwidthBytesPerS,
              sim::kCompute, "serve:ckpt");
          if (mgr) {
            mgr->save(ck);
          } else {
            mem_blob = payload;
          }
          ++out.checkpoints;
          out.checkpoint_bytes += bytes;
        };
      }
      out.report = engine.run(ctx, opts);
    });
    return true;
  };

  // Restores the newest checkpoint (or restarts from scratch) and fails
  // arrivals fast until the replay is back where the crash left off.
  const auto recover = [&](const resilience::Failure& f,
                           sim::Cluster::Config&) {
    ServeRecoveryEvent ev{f.time_s, f.rank, f.error.code_name()};
    have_ck = false;
    if (mgr) {
      try {
        resume_ck = mgr->load_latest();
        have_ck = true;
        // burst-lint: allow(error-flow) recovery policy: when no usable
        // checkpoint exists the supervisor deliberately restarts the run
        // from scratch; the recovery event still records the crash cause.
      } catch (const resilience::SnapshotCorruptError&) {
        // No usable checkpoint on disk: restart the run from scratch.
      }
    } else if (!mem_blob.empty()) {
      resume_ck = deserialize_checkpoint(mem_blob);
      have_ck = true;
    }
    ev.restore_s = have_ck ? static_cast<double>(checkpoint_bytes(resume_ck)) /
                                 resilience::kDiskBandwidthBytesPerS
                           : 0.0;
    ev.resumed_iteration = have_ck ? resume_ck.iteration : 0;
    ev.lost_s =
        f.detected_at_s() - (have_ck ? resume_ck.time_s : 0.0) + ev.restore_s;
    resume_time = f.detected_at_s() + ev.restore_s;
    engine.add_breaker_window(f.time_s, resume_time + cfg.breaker_cooldown_s);
    out.recoveries.push_back(std::move(ev));
  };

  resilience::supervise(cc, cfg.max_recoveries, serve, recover);
  return out;
}

ResilientPrefillResult resilient_distributed_prefill(
    const sim::Cluster::Config& base, const model::ModelConfig& cfg,
    const model::ModelWeights& w, const std::vector<std::int64_t>& prompt,
    std::int64_t block_tokens, const kernels::MaskSpec& mask,
    const PrefillRetryConfig& retry) {
  const auto plen = static_cast<std::int64_t>(prompt.size());
  double backoff = kBackoffBaseS;
  ResilientPrefillResult out;
  const auto prefill = [&](sim::Cluster& cluster) {
    out.result =
        distributed_prefill(cluster, cfg, w, prompt, block_tokens, mask);
    out.final_world = cluster.world_size();
    return true;
  };
  // Backs off, and after a crash shrinks the ring to the survivors: the
  // largest world below the current one that still divides the prompt (1
  // always qualifies).
  const auto recover = [&](const resilience::Failure& f,
                           sim::Cluster::Config& next) {
    out.failure_codes.push_back(f.error.code_name());
    out.wasted_s += f.detected_at_s() + backoff;
    backoff *= kBackoffMultiplier;
    ++out.attempts;
    if (f.crashed && next.topo.world_size() > 1) {
      int shrunk = next.topo.world_size() - 1;
      while (shrunk > 1 && plen % shrunk != 0) {
        --shrunk;
      }
      resilience::shrink_world(next, shrunk);
    }
  };
  resilience::supervise(base, retry.max_attempts - 1, prefill, recover);
  return out;
}

}  // namespace burst::serve
