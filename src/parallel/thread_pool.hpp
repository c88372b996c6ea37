// Fork-join thread pool for intra-op parallelism (GEMM row blocks and
// column groups, attention heads, decode rows). A pool of size n runs a
// parallel_for n ways: the calling thread plus n - 1 helper threads, so a
// pool sized to the core count never oversubscribes it.
//
// One job slot, no queue: the caller publishes a job under a new
// generation, and every thread — the caller included — claims chunks from
// one generation-tagged atomic word until none are left. Helpers spin for a
// bounded time between jobs, so back-to-back calls dispatch in
// microseconds, then park on a condition variable; the caller pays a
// notify only when some helper is parked. Threads are joined in the
// destructor (C++ Core Guidelines CP.*: RAII, no detached threads).
// DESIGN.md section 11, "Fork-join pool", has the protocol.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace burst::parallel {

using RangeFn = std::function<void(std::size_t, std::size_t)>;

/// A fixed pool of `size() - 1` helper threads serving one fork-join job at
/// a time.
class ThreadPool {
 public:
  /// Creates a pool that runs `num_threads` ways (caller included).
  /// `num_threads == 0` selects the `BURST_THREADS` environment variable if
  /// set to a positive integer, otherwise
  /// `std::thread::hardware_concurrency()` (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Wakes and joins every helper. No job may be in flight.
  ~ThreadPool();

  /// Ways a parallel_for on this pool runs: the caller plus the helpers.
  std::size_t size() const { return helpers_.size() + 1; }

  /// Process-wide shared pool (lazily constructed; sized from BURST_THREADS
  /// or the hardware). The lookup is one atomic load.
  static ThreadPool& global();

  /// Destroys and rebuilds the global pool at `num_threads` ways
  /// (0 = re-read BURST_THREADS / hardware). For tests and process startup;
  /// callers must ensure no parallel_for is in flight.
  static void reset_global(std::size_t num_threads = 0);

 private:
  friend void parallel_for(std::size_t, std::size_t, std::size_t,
                           const RangeFn&);

  /// Runs `chunks` chunks of the job on the caller and the helpers and
  /// returns once all are done. Returns false, having run nothing, when
  /// another thread's job holds the slot.
  bool run(std::size_t begin, std::size_t end, std::size_t grain,
           std::size_t chunks, const RangeFn& fn);
  /// Claims and runs chunks of generation `gen` until none are left.
  void work(std::uint32_t gen);
  /// Spins, then parks, until the claim word carries a generation other
  /// than `seen` or the pool stops; returns the word's generation.
  std::uint32_t next_job(std::uint32_t seen);
  void helper_loop();

  std::vector<std::thread> helpers_;

  // The job slot. Written by the owner of `busy_` before it publishes the
  // job through `claim_`; read by a helper only after it claims a chunk, so
  // the claim's acquire orders the reads after the writes, and the owner
  // cannot rewrite the slot until that chunk is counted in `pending_`.
  const RangeFn* fn_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t grain_ = 1;
  std::uint32_t gen_ = 0;  // owner-only: generation of the last job
  std::exception_ptr error_;  // first chunk exception, under error_mu_
  std::mutex error_mu_;

  std::atomic<bool> busy_{false};
  // (generation << 32) | chunks not yet claimed; chunk i is claimed when the
  // count drops from i + 1 to i.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::size_t> pending_{0};  // chunks not yet finished
  std::atomic<std::size_t> parked_{0};
  std::atomic<bool> stop_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
};

/// Ways a parallel_for issued from this thread would run: 1 on a pool
/// helper, inside a parallel_for chunk, or with a one-way pool; otherwise
/// the global pool's size. Kernels use it to skip splits that would run
/// inline anyway.
std::size_t concurrency();

/// Splits `[begin, end)` into chunks of exactly `grain` elements (last chunk
/// may be short) at fixed boundaries `begin + i*grain`, and runs
/// `fn(chunk_begin, chunk_end)` for each chunk on the global pool. Blocks
/// until this call's chunks complete. The first exception a chunk throws is
/// rethrown here after every chunk has finished.
///
/// The partition depends only on (begin, end, grain) — never on the pool
/// size — so a kernel whose chunks touch disjoint state computes bitwise
/// identical results for any pool size (including `BURST_THREADS`
/// overrides). Falls back to one serial `fn(begin, end)` call when there is
/// a single chunk, a one-way pool, the caller is a helper or inside a chunk
/// (a nested call, such as a GEMM inside a per-head task), or another
/// thread's job holds the pool. Per-element arithmetic is unchanged because
/// chunk boundaries never split `fn`'s per-index work.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const RangeFn& fn);

/// Overload over `[0, n)`.
void parallel_for(std::size_t n, std::size_t grain, const RangeFn& fn);

}  // namespace burst::parallel
