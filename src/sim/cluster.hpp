// Thread-per-device cluster simulator.
//
// Each simulated GPU runs the user's SPMD function on its own std::thread
// with a private virtual clock (sim/clock.hpp) and memory tracker
// (sim/memory.hpp). Devices exchange Messages through mailboxes keyed by
// (src, dst, tag); a message carries optional tensor payloads (functional
// mode) or just a byte count (time-only mode), and always carries a virtual
// `ready_time` so the receiver's clock reflects link latency/bandwidth.
//
// Error semantics: if any device throws (e.g. DeviceOomError), the cluster
// aborts — every blocked receive wakes up with ClusterAbortedError (or the
// typed PeerFailedError when the rank it was blocked on is the one that
// failed) so all threads can unwind and join — and Cluster::run rethrows the
// *temporally first* root-cause exception. This is what lets OOM experiments
// (Figure 12/13) fail cleanly and what the recovery supervisor
// (src/resilience/supervisor.hpp) builds its detection path on.
//
// Fault injection: a FaultPlan on Config (sim/fault.hpp) deterministically
// kills ranks, slows them down, degrades links, and drops/duplicates/
// corrupts in-flight messages. Drops are observable by the sender through
// try_send so reliable protocols (comm::Communicator) can retry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <condition_variable>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/clock.hpp"
#include "sim/fault.hpp"
#include "sim/memory.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"
#include "tensor/shared_tensors.hpp"

namespace burst::sim {

/// A point-to-point message. `payload` is a shared read-only handle (the
/// mailbox never copies it) and may be empty for time-only runs; `bytes` is
/// what is charged on the wire (the caller decides the simulated dtype
/// width, e.g. 2 bytes/element for bf16 even though the functional payload
/// is fp32).
struct Message {
  tensor::SharedTensors payload;
  std::uint64_t bytes = 0;
  /// Control plane of the protocol layer above (comm::Frame's sequence
  /// number, payload checksum and bundle origin). Carried untouched, never
  /// charged on the wire.
  std::uint64_t seq = 0;
  std::uint32_t checksum = 0;
  std::int32_t origin = -1;
  double ready_time = 0.0;
  /// Extra copy injected by a DuplicateMessages fault. Receivers that never
  /// consume it (the common case: each tag is received exactly once) leave
  /// it in the mailbox; the end-of-run drain check ignores these.
  bool injected_dup = false;
};

class Cluster;

/// Everything a device-side SPMD function can touch, one per rank: made by
/// Cluster::run, or by the caller for a lone rank. Not thread-shared.
class DeviceContext {
 public:
  DeviceContext(Cluster& cluster, int rank);

  int rank() const { return rank_; }
  int world_size() const;
  const Topology& topo() const;

  VirtualClock& clock() { return clock_; }
  MemoryTracker& mem() { return mem_; }

  /// Charges `flops` of work to `stream` at the cluster's configured
  /// per-device compute rate. `label` names the interval in traces.
  void compute(double flops, int stream = kCompute,
               const char* label = "compute");

  /// Charges `seconds` of work directly (for modeled non-FLOP costs).
  void busy(double seconds, int stream = kCompute,
            const char* label = "busy");

  /// Non-blocking send. Serialization occupies `stream` on this device;
  /// the message becomes visible to `dst` at
  ///   now(stream) + link.latency + bytes/link.bandwidth.
  /// If a DropMessages fault eats the message it vanishes silently — use
  /// try_send (or comm::Communicator, which retries) on lossy links.
  void send(int dst, int tag, Message msg, int stream = kIntraComm);

  /// Like send, but reports delivery: returns false when a DropMessages
  /// fault consumed this attempt (wire time is still charged, like a
  /// timed-out transmission). Reliable protocols retry on false.
  bool try_send(int dst, int tag, Message msg, int stream = kIntraComm);

  /// Blocking receive; advances `stream` to the message's ready time.
  /// Throws PeerFailedError if `src` failed while this rank was blocked,
  /// ClusterAbortedError if any other rank brought the cluster down.
  Message recv(int src, int tag, int stream = kIntraComm);

  /// Thread barrier + virtual-clock join: after this call every device's
  /// streams sit at the cluster-wide max elapsed time.
  void barrier();

  /// Reports the global training-step number to the fault layer so
  /// CrashDevice::at_step faults can fire at a step boundary. Call at the
  /// top of each step in step-structured workloads (the resilient driver
  /// does). Also checks time-based crashes, like every other op.
  void begin_step(std::int64_t step);

  /// True when the fault plan can drop, duplicate, or corrupt messages —
  /// i.e. when reliable protocols actually need their integrity machinery
  /// (a payload handle kept for retransmission, frame checksums).
  /// Fault-free runs skip that overhead.
  bool unreliable_network() const;

  // Wire-traffic counters (used by communication-volume invariant tests).
  // Split by link class: intra-node (NVLink) vs inter-node (IB) — the axis
  // Table 1's topology-aware comparison turns on.
  std::uint64_t bytes_sent() const { return bytes_intra_ + bytes_inter_; }
  std::uint64_t messages_sent() const { return msgs_; }
  std::uint64_t bytes_sent_intra() const { return bytes_intra_; }
  std::uint64_t bytes_sent_inter() const { return bytes_inter_; }

  /// Registry attached via Cluster::Config::metrics; null when observability
  /// is off (callers must guard — that null check IS the zero-cost path).
  obs::Registry* metrics() const;

 private:
  /// Throws InjectedFaultError if a CrashDevice fault targets this rank and
  /// its firing time has been reached (one-shot; marks it fired).
  void check_crash(double now_s);
  /// Marks crash entry `i` fired, counts and traces it; false if it already
  /// fired.
  bool claim_crash(std::size_t i, double now_s);
  /// Product of the slowdown factors of stragglers active at `now_s`.
  double work_scale(double now_s) const;

  Cluster& cluster_;
  int rank_;
  VirtualClock clock_;
  MemoryTracker mem_;
  std::uint64_t bytes_intra_ = 0;
  std::uint64_t bytes_inter_ = 0;
  std::uint64_t msgs_ = 0;
  // Pre-resolved registry handles (one map lookup each at construction, one
  // relaxed atomic add per send after that). All null when no registry is
  // attached — the hot path then does nothing beyond the plain counters.
  struct LinkCounters {
    obs::Counter* bytes = nullptr;
    obs::Counter* messages = nullptr;
    obs::Counter* bytes_all_ranks = nullptr;
    obs::Counter* messages_all_ranks = nullptr;
  };
  LinkCounters obs_intra_;
  LinkCounters obs_inter_;
};

/// Final per-device statistics captured after a run (also captured for the
/// partial work done before an aborted run unwound, which is what recovery
/// latency metrics are computed from).
struct DeviceStats {
  double elapsed_s = 0.0;
  std::uint64_t peak_mem_bytes = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
  // Per-link-class split of bytes_sent.
  std::uint64_t bytes_sent_intra = 0;
  std::uint64_t bytes_sent_inter = 0;
};

class Cluster {
 public:
  struct Config {
    Topology topo = Topology::single_node(1);
    /// Per-device sustained compute rate used to convert FLOPs to virtual
    /// seconds. Defaults to a deliberately round 100 TFLOP/s.
    double flops_per_s = 100e12;
    /// Per-device memory capacity; infinite unless an experiment sets it.
    std::uint64_t device_memory_capacity =
        std::numeric_limits<std::uint64_t>::max();
    /// Optional execution-trace sink (not owned); see sim/trace.hpp.
    TraceRecorder* trace = nullptr;
    /// Optional metrics registry (not owned). When attached, every send is
    /// accounted per rank and per link class (comm.bytes{link=...,rank=...})
    /// and fault firings are mirrored under sim.faults.*. Attaching a
    /// registry never touches the virtual clock: runs are bitwise identical
    /// with and without one (tests/test_obs.cpp asserts this).
    obs::Registry* metrics = nullptr;
    /// Deterministic fault schedule; see sim/fault.hpp.
    FaultPlan faults{};
  };

  explicit Cluster(Config cfg);

  const Config& config() const { return cfg_; }
  int world_size() const { return cfg_.topo.world_size(); }

  /// Runs `fn(ctx)` on world_size() threads, one per rank. Blocks until all
  /// devices finish; rethrows the temporally-first root-cause exception
  /// (after all threads have unwound). May be called repeatedly; mailboxes
  /// must be empty at the end of each clean run (checked; duplicates
  /// injected by faults are exempt). Crash faults that fired in an earlier
  /// run stay disarmed, so a re-run resumes past them.
  void run(const std::function<void(DeviceContext&)>& fn);

  /// Stats of the most recent run, indexed by rank.
  const std::vector<DeviceStats>& stats() const { return stats_; }

  /// Cluster-wide makespan of the most recent run.
  double makespan() const;

  /// Rank whose exception Cluster::run (re)threw for the most recent run:
  /// the rank with the earliest *virtual-time* root-cause failure (not a
  /// secondary ClusterAbortedError raised while unwinding), ties broken by
  /// rank. -1 if the run finished cleanly. Deterministic even when multiple
  /// ranks throw concurrently.
  int last_failure_rank() const { return last_failure_rank_; }

  /// Virtual time at which the rank reported by last_failure_rank() failed
  /// in the most recent run. Unlike makespan() — which depends on how far
  /// surviving ranks happened to advance before observing the abort — this
  /// is deterministic for a deterministic fault plan. 0 for a clean run.
  double last_failure_time_s() const { return last_failure_time_s_; }

  /// Counters of injected faults that actually fired (cumulative). A thin
  /// compatibility view over the cluster's internal metrics registry
  /// (sim.faults.* counters) — the registry is the source of truth.
  FaultStats fault_stats() const;

 private:
  friend class DeviceContext;

  using MailboxKey = std::tuple<int, int, int>;  // (src, dst, tag)

  /// Applies drop/duplicate/corrupt faults, then delivers. Returns false if
  /// the message was dropped. `send_time` is the sender's clock at send.
  /// Corruption flips bits in a private clone of the payload, so the
  /// sender's tensors never change; a duplicate shares the payload.
  bool post(int src, int dst, int tag, Message msg, double send_time);
  Message take(int src, int dst, int tag);
  /// Records a device failure at virtual time `fail_time_s` and aborts.
  /// The winner (earliest virtual time, ties broken by rank) is selected
  /// deterministically, independent of wall-clock thread scheduling.
  void report_failure(int rank, double fail_time_s, std::exception_ptr error);
  void abort();
  void barrier_and_sync(DeviceContext& ctx);

  /// Effective link parameters for a send begun at `send_time`, after
  /// DegradeLink faults.
  LinkParams effective_link(int src, int dst, double send_time) const;

  Config cfg_;

  std::mutex mail_mutex_;
  std::condition_variable mail_cv_;
  std::map<MailboxKey, std::deque<Message>> mailboxes_;
  bool aborted_ = false;
  /// Ranks that failed with a root-cause error (guarded by mail_mutex_ so
  /// blocked receivers observe it together with aborted_).
  std::vector<char> failed_;

  // Failure bookkeeping for the current run (guarded by mail_mutex_).
  // "First" means earliest *virtual* failure time, ties broken by rank —
  // deterministic even when several threads throw concurrently.
  std::exception_ptr first_error_;      // first of any kind
  int first_error_rank_ = -1;
  double first_error_time_ = 0.0;
  std::exception_ptr root_cause_;       // first non-secondary
  int root_cause_rank_ = -1;
  double root_cause_time_ = 0.0;
  int last_failure_rank_ = -1;
  double last_failure_time_s_ = 0.0;

  // Fault runtime state (guarded by fault_mutex_; crash flags persist
  // across runs, per-message counters re-arm each run). Message budgets are
  // tracked per concrete (src, dst) link — a wildcard entry otherwise burns
  // its count in real-thread arrival order across links, which would make
  // chaos replays nondeterministic. One link has one sender thread, so
  // per-link consumption follows that sender's deterministic program order.
  mutable std::mutex fault_mutex_;
  std::vector<char> crash_fired_;
  std::vector<std::map<std::pair<int, int>, int>> drops_left_;
  std::vector<std::map<std::pair<int, int>, int>> dups_left_;
  std::vector<std::map<std::pair<int, int>, int>> corrupts_left_;

  // Fault accounting lives in the internal registry; FaultStats is read
  // back from these handles. The attached Config::metrics registry (if any)
  // receives mirror increments so external observers see the same counts.
  obs::Registry internal_metrics_;
  struct FaultCounters {
    obs::Counter* crashes = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* duplicated = nullptr;
    obs::Counter* corrupted = nullptr;
  };
  FaultCounters fault_counters_;   // into internal_metrics_ (always valid)
  FaultCounters fault_mirror_;     // into cfg_.metrics (null when detached)
  void count_fault(obs::Counter* FaultCounters::* which);

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;
  double barrier_max_time_ = 0.0;
  double barrier_release_time_ = 0.0;

  std::vector<DeviceStats> stats_;
};

}  // namespace burst::sim
