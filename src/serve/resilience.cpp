#include "serve/resilience.hpp"
// burst-lint: allow-file(no-direct-cluster) hosting boundary: builds a fresh cluster per recovery attempt

#include <optional>
#include <utility>

#include "resilience/snapshot.hpp"
#include "serve/snapshot.hpp"
#include "sim/topology.hpp"

namespace burst::serve {

namespace {

/// Durable checkpoints retained in ServeResilienceConfig::snapshot_dir.
constexpr int kKeepLast = 2;
/// Models checkpoint save/restore I/O time (bytes / bandwidth charged to
/// the virtual clock).
constexpr double kDiskBandwidthBytesPerS = 2e9;
/// Prefill retry backoff: kBackoffBaseS before the first retry, growing by
/// kBackoffMultiplier per attempt, charged as wasted virtual time.
constexpr double kBackoffBaseS = 1e-3;
constexpr double kBackoffMultiplier = 2.0;

/// Failures a supervisor can retry past: injected crashes and the comm-layer
/// errors they (or message faults) produce. Everything else — OOM, stalls,
/// invariant violations — would deterministically recur on replay.
bool recoverable_code(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInjectedFault:
    case ErrorCode::kPeerFailed:
    case ErrorCode::kClusterAborted:
    case ErrorCode::kCommTimeout:
    case ErrorCode::kCommCorruption:
      return true;
    default:
      return false;
  }
}

/// Drops fault entries that reference ranks outside [0, world) after the
/// ring shrank (wildcard -1 entries stay).
sim::FaultPlan restrict_to_world(sim::FaultPlan plan, int world) {
  const auto out_of_range = [world](int r) { return r >= world; };
  std::erase_if(plan.crashes,
                [&](const auto& c) { return out_of_range(c.rank); });
  std::erase_if(plan.stragglers,
                [&](const auto& s) { return out_of_range(s.rank); });
  std::erase_if(plan.degradations, [&](const auto& d) {
    return out_of_range(d.src) || out_of_range(d.dst);
  });
  std::erase_if(plan.drops, [&](const auto& d) {
    return out_of_range(d.src) || out_of_range(d.dst);
  });
  std::erase_if(plan.duplicates, [&](const auto& d) {
    return out_of_range(d.src) || out_of_range(d.dst);
  });
  std::erase_if(plan.corruptions, [&](const auto& c) {
    return out_of_range(c.src) || out_of_range(c.dst);
  });
  return plan;
}

/// Advances the fault plan in the prefill retry loop. The failed cluster's
/// fired-fault counters are real-time racy near an abort — a sender may or
/// may not post one more (droppable/corruptible) message before it observes
/// the stop — so a retry plan built from them would not replay
/// bit-identically. Instead the plan advances on facts the
/// simulator reports deterministically: the root cause's rank and virtual
/// failure time. A crash-rooted failure consumes the one crash entry
/// attributable to it; every message-fault entry armed at or before the
/// failure instant is considered spent (partially burned budgets are
/// forgiven rather than replayed nondeterministically).
sim::FaultPlan advance_plan_after_failure(sim::FaultPlan plan, int failed_rank,
                                          double fail_time_s,
                                          bool crash_rooted) {
  if (crash_rooted) {
    auto fired = plan.crashes.end();
    for (auto it = plan.crashes.begin(); it != plan.crashes.end(); ++it) {
      if ((it->rank == failed_rank || it->rank < 0 || failed_rank < 0) &&
          it->at_time_s <= fail_time_s &&
          (fired == plan.crashes.end() || it->at_time_s < fired->at_time_s)) {
        fired = it;
      }
    }
    if (fired != plan.crashes.end()) {
      plan.crashes.erase(fired);
    }
  }
  const auto spent = [&](const auto& f) {
    return f.from_time_s <= fail_time_s;
  };
  std::erase_if(plan.drops, spent);
  std::erase_if(plan.duplicates, spent);
  std::erase_if(plan.corruptions, spent);
  return plan;
}

}  // namespace

ResilientServeReport serve_with_recovery(Engine& engine,
                                         const ServeResilienceConfig& cfg) {
  sim::Cluster::Config cc;
  cc.topo = sim::Topology::single_node(1);
  cc.flops_per_s = cfg.flops_per_s;
  cc.trace = cfg.trace;
  cc.faults = cfg.faults;
  // One cluster across every attempt: fired crash faults stay disarmed, so
  // a re-run resumes *past* the crash instead of dying on it again.
  sim::Cluster cluster(cc);

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

  for (;;) {
    ServeReport rep;
    try {
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
            cctx.busy(static_cast<double>(bytes) / kDiskBandwidthBytesPerS,
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
        rep = engine.run(ctx, opts);
      });
    } catch (const Error& e) {
      if (!recoverable_code(e.code()) ||
          static_cast<int>(out.recoveries.size()) >= cfg.max_recoveries) {
        throw;
      }
      const double fail_time =
          cluster.stats().empty() ? 0.0 : cluster.stats()[0].elapsed_s;
      ServeRecoveryEvent ev;
      ev.fail_time_s = fail_time;
      ev.failed_rank = cluster.last_failure_rank();
      ev.cause_code = error_code_of(e);
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
      const std::uint64_t restore_bytes =
          have_ck ? checkpoint_bytes(resume_ck) : 0;
      ev.restore_s =
          static_cast<double>(restore_bytes) / kDiskBandwidthBytesPerS;
      ev.resumed_iteration = have_ck ? resume_ck.iteration : 0;
      ev.lost_s = fail_time - (have_ck ? resume_ck.time_s : 0.0) + ev.restore_s;
      resume_time = fail_time + ev.restore_s;
      engine.add_breaker_window(fail_time,
                                resume_time + cfg.breaker_cooldown_s);
      out.recoveries.push_back(std::move(ev));
      continue;
    }
    out.report = std::move(rep);
    return out;
  }
}

ResilientPrefillResult resilient_distributed_prefill(
    const sim::Cluster::Config& base, const model::ModelConfig& cfg,
    const model::ModelWeights& w, const std::vector<std::int64_t>& prompt,
    std::int64_t block_tokens, const kernels::MaskSpec& mask,
    const PrefillRetryConfig& retry) {
  sim::Cluster::Config cc = base;
  const auto plen = static_cast<std::int64_t>(prompt.size());
  double backoff = kBackoffBaseS;
  ResilientPrefillResult out;
  for (int attempt = 1;; ++attempt) {
    sim::Cluster cluster(cc);
    try {
      out.result =
          distributed_prefill(cluster, cfg, w, prompt, block_tokens, mask);
      out.attempts = attempt;
      out.final_world = cluster.world_size();
      return out;
    } catch (const Error& e) {
      out.failure_codes.push_back(error_code_of(e));
      if (!recoverable_code(e.code()) || attempt >= retry.max_attempts) {
        throw;
      }
      // Charge the attempt at the root-cause failure instant, not the
      // cluster makespan: how far *surviving* ranks ran before observing
      // the abort depends on thread scheduling, and wasted_s must replay
      // bit-identically for a fixed seed.
      out.wasted_s += cluster.last_failure_time_s() + backoff;
      // Retry on a fresh cluster: advance the plan past what fired so
      // one-shot crashes and consumed message budgets don't re-arm.
      const bool crash_rooted = e.code() == ErrorCode::kInjectedFault ||
                                e.code() == ErrorCode::kPeerFailed ||
                                e.code() == ErrorCode::kClusterAborted;
      sim::FaultPlan plan = advance_plan_after_failure(
          cc.faults, cluster.last_failure_rank(),
          cluster.last_failure_time_s(), crash_rooted);
      if (crash_rooted && cc.topo.world_size() > 1) {
        // Shrink the ring to the survivors: the largest world below the
        // current one that still divides the prompt (1 always qualifies).
        int shrunk = cc.topo.world_size() - 1;
        while (shrunk > 1 && plen % shrunk != 0) {
          --shrunk;
        }
        cc.topo = sim::Topology::single_node(shrunk);
        plan = restrict_to_world(std::move(plan), shrunk);
      }
      cc.faults = std::move(plan);
      backoff *= kBackoffMultiplier;
    }
  }
}

}  // namespace burst::serve
