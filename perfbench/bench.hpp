// Shared plumbing of the repository benchmark (perfbench/): run options, the
// result a workload fills in, wall-clock helpers and the benchmark model.
//
// Every number here is taken from outside the program: a workload times
// calls into the public functions of each layer (tensor, kernels, parallel,
// sim, comm, core, model, serve, api) and reads the counters those layers
// already expose. Nothing under src/ is instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "model/config.hpp"

namespace burst::sim {
class TraceRecorder;
}  // namespace burst::sim

namespace perfbench {

class Breakdown;
class SpanRecorder;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace (empty: nowhere).
  std::string trace_out;
  /// Hardware threads of the host; the kernel pool never exceeds it.
  std::size_t nproc = 1;
};

/// What a workload reports. Metric names and units follow
/// perfbench/METRICS.md; run.py selects the end-to-end or per-layer set that
/// BENCHMARK.json names for the mode and checks the units.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a named output check. A failed check makes the run incorrect.
  bool check(bool ok, const std::string& what);
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  void fail(std::int64_t n = 1) { failed_ += n; }
  /// Free-form context line for the human-readable report.
  void note(const std::string& line) { notes_.push_back(line); }

  bool all_checks_passed() const;

  /// Prints the human-readable report (notes, checks, every metric) and then
  /// one JSON object with every metric as the last stdout line.
  void print(const Options& opt) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::string> notes_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall seconds taken by `fn()`.
inline double time_s(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Peak resident set size of this process so far, in MB (getrusage).
double peak_rss_mb();

/// Runs the set-up `fn` nine times and returns the median wall seconds: the
/// benchmark's set-up time (setup_s).
double median_setup_s(const std::function<void()>& fn);

/// The model every workload runs (see METRICS.md): LLaMA-style
/// L=4, d=256, h=8, V=2048, d_ff=688, RoPE, causal. `kv_heads` selects GQA.
burst::model::ModelConfig bench_model(std::int64_t kv_heads = 0);

/// Pins the process-wide kernel pool to `threads` workers (clamped to
/// [1, nproc]) and records the choice in `res`.
void pin_pool(std::size_t threads, const Options& opt, Result& res);

/// Reports a traced operation's breakdown: op.wall_ms (the whole),
/// op.unattributed_ms (whole minus every attributed part), a report line
/// with every part, and a check that parts plus remainder equal the whole.
void report_breakdown(Result& res, const Breakdown& b);

/// Writes the traced run's Chrome trace (wall spans, plus the simulated
/// devices' virtual spans of `virt` when given) if --trace-out was set.
void write_trace(const Options& opt, Result& res, const SpanRecorder& rec,
                 const burst::sim::TraceRecorder* virt);

// Workload entry points.
void run_train_1dev(const Options& opt, Result& res);
void run_train_cp4(const Options& opt, Result& res);
void run_serve_chat(const Options& opt, Result& res);
void run_sweep_timeonly(const Options& opt, Result& res);

/// Self-tests of the benchmark's own machinery (statistics helpers, the
/// unattributed-remainder arithmetic, span nesting). Runs in every run.
void run_selftests(Result& res);

}  // namespace perfbench
