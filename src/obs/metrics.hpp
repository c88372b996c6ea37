// Thread-safe metrics registry: the one reporting surface every subsystem
// feeds (comm layer, attention sweeps, FSDP loop, serve engine, resilience
// supervisor, benches).
//
// Three instrument kinds, interned by name:
//   * Counter   — monotonically increasing u64 (wraps modulo 2^64; reset()
//                 rewinds to zero). Lock-free increments.
//   * Gauge     — a last-written double (peak memory, makespan, world size).
//   * Histogram — raw samples with nearest-rank percentiles (p50/p99 token
//                 latency, per-phase durations on the virtual clock).
//
// Zero-cost when disabled: call sites hold a `Registry*` that is null unless
// the user attached one (sim::Cluster::Config::metrics and friends), and hot
// paths pre-resolve Counter handles once so the per-event cost with a
// registry attached is a single relaxed atomic add — and exactly nothing
// without one. Metrics never touch the virtual clock, so a run with a
// registry is bitwise identical to a run without (asserted by
// tests/test_obs.cpp).
//
// Naming convention: dotted subsystem path plus `{key=value,...}` labels,
// e.g. `comm.bytes{link=intra,rank=3}`. The label block is part of the
// interned name — callers format it with obs::labeled().
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace burst::obs {

class Counter {
 public:
  /// Wraps modulo 2^64 on overflow, like every hardware event counter.
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if `v` is larger. Atomic against concurrent
  /// set_max calls, so high-water marks fed from several threads never lose
  /// the true maximum.
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  void observe(double v);

  std::uint64_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  /// Nearest-rank percentile, q in [0, 1]. 0 when empty. q=0.5 over
  /// {1..100} is 50 (same definition the serve engine always used).
  double percentile(double q) const;
  void reset();

 private:
  friend class Registry;  // merge_from appends samples under both locks
  mutable std::mutex mu_;
  std::vector<double> samples_;
};

/// Point-in-time percentile summary used for serialization.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Abstract interval sink. sim::TraceRecorder implements it, so scoped
/// timers (and anything else in layers below sim) can feed the existing
/// Chrome-trace machinery without a dependency cycle.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(int rank, int stream, std::string name, double begin_s,
                      double end_s) = 0;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Interns (creating on first use) the named instrument. The returned
  /// reference stays valid for the registry's lifetime; hot paths should
  /// resolve it once and keep the pointer.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Snapshot views for serialization (sorted by name).
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, HistogramSummary>> histograms() const;

  /// Zeroes every instrument (names stay interned).
  void reset();

  /// Folds `from` into this registry: counters add, histograms append their
  /// samples, gauges take `from`'s value. `from` is another registry that
  /// no thread is writing.
  void merge_from(const Registry& from);

 private:
  mutable std::mutex mu_;
  // Node-based maps: rehashing never moves an instrument, so handed-out
  // references survive concurrent interning.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Label set of a metric name, in emission order.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// `labeled("comm.bytes", {{"link", "intra"}, {"rank", "3"}})` →
/// `comm.bytes{link=intra,rank=3}`. Pairs are emitted in argument order.
std::string labeled(const std::string& name, const Labels& labels);

/// Scoped virtual-clock timer: captures begin at construction, and on
/// destruction observes the elapsed virtual seconds into
/// `registry.histogram(name)` and records the interval on the trace sink.
/// Both sinks are optional; with neither attached the timer is inert.
/// `now` is any callable returning the current virtual time (e.g.
/// `[&] { return ctx.clock().elapsed(); }`) — obs sits below sim, so the
/// clock is reached through the closure, not an include.
template <typename NowFn>
class ScopedTimer {
 public:
  ScopedTimer(Registry* registry, TraceSink* trace, int rank, int stream,
              std::string name, NowFn now)
      : registry_(registry),
        trace_(trace),
        rank_(rank),
        stream_(stream),
        name_(std::move(name)),
        now_(std::move(now)),
        begin_s_((registry_ != nullptr || trace_ != nullptr) ? now_() : 0.0) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (registry_ == nullptr && trace_ == nullptr) {
      return;
    }
    const double end_s = now_();
    if (registry_ != nullptr) {
      registry_->histogram(name_).observe(end_s - begin_s_);
    }
    if (trace_ != nullptr) {
      trace_->record(rank_, stream_, name_, begin_s_, end_s);
    }
  }

 private:
  Registry* registry_;
  TraceSink* trace_;
  int rank_;
  int stream_;
  std::string name_;
  NowFn now_;
  double begin_s_;
};

}  // namespace burst::obs
