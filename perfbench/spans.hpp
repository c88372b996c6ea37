// In-memory wall-clock spans for the traced run.
//
// A span is recorded by the benchmark around one call into a layer's public
// function: its name ("kernels.flash_forward_partial"), the owning layer
// (the text before the first dot), begin/end on the steady clock, the
// recording thread, and the span that was open on that thread when it began
// (its parent). Spans stay in memory and are written once, at the end of the
// run, as a Chrome trace; simulated-device spans from a sim::TraceRecorder go
// into the same file under their own pid group, so one file shows the
// simulator's virtual timeline beside the CPU's wall timeline.
//
// A null recorder makes ScopedSpan inert, which is how the untraced run
// (where end-to-end metrics come from) pays nothing for tracing.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/trace.hpp"

namespace perfbench {

struct WallSpan {
  std::string name;
  double begin_s = 0.0;
  double end_s = 0.0;
  int thread = 0;   // dense per-recorder thread index
  int parent = -1;  // index of the enclosing span on the same thread
  double ms() const { return (end_s - begin_s) * 1e3; }
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread; returns its index.
  int open(const std::string& name);
  /// Closes span `index` (must be the innermost open span of the thread).
  void close(int index);

  /// Every span, in the order they were opened (an open span has
  /// end_s == begin_s).
  std::vector<WallSpan> spans() const;

  /// Writes a Chrome trace: wall spans under pid 1 (tid = thread, the
  /// parent's index in args), and the simulated devices' virtual-clock
  /// events of `virt` (may be null) under pid 1000 + rank (tid = stream).
  void write_chrome_trace(const std::string& path,
                          const burst::sim::TraceRecorder* virt) const;

 private:
  int thread_index_locked(std::thread::id id);

  const double origin_s_;
  mutable std::mutex mu_;
  std::vector<WallSpan> spans_;
  std::vector<std::thread::id> threads_;
  std::vector<std::vector<int>> open_stack_;  // per thread index
};

/// RAII span; inert when `rec` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), index_(rec != nullptr ? rec->open(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace perfbench
