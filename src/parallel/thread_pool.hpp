// Minimal fixed-size thread pool used for intra-op parallelism (GEMM row
// blocks, the serial transformer block's attention heads). Follows C++ Core
// Guidelines CP.*: threads are joined in the destructor (RAII), work is
// expressed as tasks, the task queue is guarded by a single mutex +
// condition variable pair, and each parallel_for call waits on its own
// completion count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace burst::parallel {

/// A fixed pool of worker threads executing `std::function<void()>` tasks.
///
/// The pool is intentionally simple: a single locked queue. Intra-op tasks in
/// this codebase are coarse (whole GEMM panels / attention heads), so queue
/// contention is negligible compared to task cost.
class ThreadPool {
 public:
  /// Creates `num_threads` workers. `num_threads == 0` selects the
  /// `BURST_THREADS` environment variable if set to a positive integer,
  /// otherwise `std::thread::hardware_concurrency()` (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers. Pending tasks are drained before shutdown.
  ~ThreadPool();

  /// Enqueues a task. Never blocks (unbounded queue).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  std::size_t size() const { return workers_.size(); }

  /// Process-wide shared pool (lazily constructed; sized from BURST_THREADS
  /// or the hardware).
  static ThreadPool& global();

  /// Destroys and rebuilds the global pool with `num_threads` workers
  /// (0 = re-read BURST_THREADS / hardware). For tests and process startup;
  /// callers must ensure no parallel_for is in flight.
  static void reset_global(std::size_t num_threads = 0);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Splits `[begin, end)` into chunks of exactly `grain` elements (last chunk
/// may be short) at fixed boundaries `begin + i*grain`, and runs
/// `fn(chunk_begin, chunk_end)` for each chunk on the global pool. Blocks
/// until this call's chunks complete; callers on other threads never wait
/// on each other's chunks.
///
/// The partition depends only on (begin, end, grain) — never on the pool
/// size — so a kernel whose chunks touch disjoint state computes bitwise
/// identical results for any pool size (including `BURST_THREADS`
/// overrides). Falls back to one serial `fn(begin, end)` call when there is
/// a single chunk, a single worker, or the caller is itself a pool worker —
/// a nested call, such as a GEMM inside a per-head task, whose worker would
/// otherwise wait on chunks queued behind its own task. Per-element
/// arithmetic is unchanged because chunk boundaries never split `fn`'s
/// per-index work.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/// Back-compat overload over `[0, n)`.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace burst::parallel
