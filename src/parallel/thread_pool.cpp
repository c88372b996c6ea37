#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"

namespace burst::parallel {

namespace {

// The clock only bounds an idle helper's spin: no result and no virtual
// time depends on it.
// burst-lint: allow(no-wallclock) spin-budget timing only
using Clock = std::chrono::steady_clock;

// How long an idle helper keeps looking for the next job before it parks.
// It has to outlast the gaps inside a decode iteration and a training step
// (serial work between GEMMs, the scheduler between iterations), or every
// dispatch after such a gap pays a futex wake and runs on the caller alone
// while the helpers come up: a 4-way job of 2 us chunks issued after 30 us
// of serial work took about 10 us with a 10 us budget and 3.5 us with this
// one (bench_micro_gemm's parallel_for_2us_job_us, 4-core Xeon). Past the
// first few microseconds the helper spins with yields, so a busy host
// still gets its cores; a pool idle for longer than this parks.
constexpr auto kSpinBudget = std::chrono::microseconds(200);
// Pause spins between clock reads while a helper waits for a job (a yield
// spin reads the clock every time).
constexpr unsigned kSpinsPerClockRead = 32;
// Spins a waiting thread makes with `pause` before it spins with yields
// instead, so that on an oversubscribed host it hands its core to runnable
// threads rather than burning it.
constexpr unsigned kPauseSpins = 256;

// True on pool helpers and on a caller while it runs its own job's chunks:
// a parallel_for issued there runs inline.
thread_local bool t_inline = false;

// Observation-only pool counters (see attach_pool_metrics): null unless a
// registry is attached. Only a dispatching caller touches them, inside its
// own parallel_for, so attaching between calls races with nothing.
struct PoolMetrics {
  obs::Counter* jobs = nullptr;
  obs::Counter* caller_chunks = nullptr;
  obs::Counter* helper_chunks = nullptr;
  obs::Counter* parks = nullptr;
  obs::Counter* wakes = nullptr;
};
PoolMetrics g_metrics;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

constexpr std::uint32_t generation(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}

constexpr std::size_t unclaimed(std::uint64_t word) {
  return static_cast<std::size_t>(word & 0xFFFFFFFFu);
}

// BURST_THREADS env override: positive integer -> pool size; anything else
// (unset, junk, <= 0) falls through to hardware concurrency.
std::size_t env_threads() {
  const char* s = std::getenv("BURST_THREADS");
  if (s == nullptr) {
    return 0;
  }
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v <= 0) {
    return 0;
  }
  return static_cast<std::size_t>(v);
}

// The global pool: `g_pool` is the lock-free lookup; `g_mu` guards only
// construction and reset_global, which owns the pool through `g_owner`.
std::atomic<ThreadPool*> g_pool{nullptr};
std::mutex g_mu;
std::unique_ptr<ThreadPool> g_owner;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = env_threads();
  }
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  helpers_.reserve(num_threads - 1);
  for (std::size_t i = 1; i < num_threads; ++i) {
    helpers_.emplace_back([this] { helper_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  {
    // Orders the store before any parked helper's predicate check.
    std::lock_guard lock(park_mu_);
  }
  park_cv_.notify_all();
  for (auto& h : helpers_) {
    h.join();
  }
}

ThreadPool& ThreadPool::global() {
  if (ThreadPool* p = g_pool.load(std::memory_order_acquire)) {
    return *p;
  }
  std::lock_guard lock(g_mu);
  if (!g_owner) {
    g_owner = std::make_unique<ThreadPool>();
    g_pool.store(g_owner.get(), std::memory_order_release);
  }
  return *g_owner;
}

void ThreadPool::reset_global(std::size_t num_threads) {
  std::lock_guard lock(g_mu);
  g_pool.store(nullptr, std::memory_order_release);
  g_owner.reset();  // join old helpers before the new pool starts
  g_owner = std::make_unique<ThreadPool>(num_threads);
  g_pool.store(g_owner.get(), std::memory_order_release);
}

std::size_t ThreadPool::work(std::uint32_t gen) {
  std::size_t ran = 0;
  std::uint64_t word = claim_.load(std::memory_order_relaxed);
  for (;;) {
    if (generation(word) != gen || unclaimed(word) == 0) {
      return ran;
    }
    // A successful claim acquires the job slot published with the word.
    if (!claim_.compare_exchange_weak(word, word - 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      continue;
    }
    const std::size_t b = begin_ + (unclaimed(word) - 1) * grain_;
    const std::size_t e = std::min(end_, b + grain_);
    try {
      (*fn_)(b, e);
    } catch (...) {
      std::lock_guard lock(error_mu_);
      if (!error_) {
        error_ = std::current_exception();
      }
    }
    ++ran;
    // Release: the chunk's writes happen-before the caller's return.
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    word = claim_.load(std::memory_order_relaxed);
  }
}

std::uint32_t ThreadPool::next_job(std::uint32_t seen) {
  const Clock::time_point t0 = Clock::now();
  for (unsigned spins = 0;; ++spins) {
    const std::uint32_t gen =
        generation(claim_.load(std::memory_order_acquire));
    if (gen != seen || stop_.load(std::memory_order_relaxed)) {
      return gen;
    }
    if (spins < kPauseSpins) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
    const bool check = spins >= kPauseSpins || spins % kSpinsPerClockRead == 0;
    if (check && Clock::now() - t0 > kSpinBudget) {
      break;
    }
  }
  // Park. Announcing first (seq_cst) and re-reading the word after pairs
  // with the caller's store-then-read of parked_: either this thread sees
  // the new job or the caller sees it parked and wakes it.
  std::unique_lock lock(park_mu_);
  parked_.fetch_add(1);
  std::uint32_t gen = seen;
  park_cv_.wait(lock, [&] {
    gen = generation(claim_.load());
    return gen != seen || stop_.load();
  });
  parked_.fetch_sub(1);
  return gen;
}

void ThreadPool::helper_loop() {
  t_inline = true;
  std::uint32_t seen = 0;
  for (;;) {
    seen = next_job(seen);
    if (stop_.load()) {
      return;
    }
    work(seen);
  }
}

bool ThreadPool::run(std::size_t begin, std::size_t end, std::size_t grain,
                     std::size_t chunks, const RangeFn& fn) {
  if (busy_.exchange(true, std::memory_order_acquire)) {
    return false;
  }
  fn_ = &fn;
  begin_ = begin;
  end_ = end;
  grain_ = grain;
  pending_.store(chunks, std::memory_order_relaxed);
  ++gen_;
  claim_.store((static_cast<std::uint64_t>(gen_) << 32) | chunks);
  const std::size_t parked = parked_.load();
  if (parked != 0) {
    {
      std::lock_guard lock(park_mu_);
    }
    park_cv_.notify_all();
  }
  t_inline = true;
  const std::size_t ran = work(gen_);
  t_inline = false;
  for (unsigned spins = 0; pending_.load(std::memory_order_acquire) != 0;
       ++spins) {
    if (spins < kPauseSpins) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  std::exception_ptr error;
  {
    std::lock_guard lock(error_mu_);
    error = std::exchange(error_, nullptr);
  }
  if (g_metrics.jobs != nullptr) {
    // Every chunk ran on the caller or on a helper, so the helpers' share
    // is what the caller did not run.
    g_metrics.jobs->add(1);
    g_metrics.caller_chunks->add(ran);
    g_metrics.helper_chunks->add(chunks - ran);
    if (parked != 0) {
      g_metrics.wakes->add(1);
      g_metrics.parks->add(parked);
    }
  }
  busy_.store(false, std::memory_order_release);
  if (error) {
    std::rethrow_exception(error);
  }
  return true;
}

std::size_t concurrency() {
  return t_inline ? 1 : ThreadPool::global().size();
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const RangeFn& fn) {
  if (begin >= end) {
    return;
  }
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  if (chunks == 1 || t_inline ||
      chunks > std::numeric_limits<std::uint32_t>::max()) {
    fn(begin, end);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  if (pool.size() == 1 || !pool.run(begin, end, grain, chunks, fn)) {
    fn(begin, end);
  }
}

void parallel_for(std::size_t n, std::size_t grain, const RangeFn& fn) {
  parallel_for(0, n, grain, fn);
}

void attach_pool_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    g_metrics = PoolMetrics{};
    return;
  }
  g_metrics.jobs = &registry->counter("parallel.pool.jobs");
  g_metrics.caller_chunks = &registry->counter("parallel.pool.chunks_caller");
  g_metrics.helper_chunks = &registry->counter("parallel.pool.chunks_helper");
  g_metrics.parks = &registry->counter("parallel.pool.parks");
  g_metrics.wakes = &registry->counter("parallel.pool.wakes");
}

}  // namespace burst::parallel
