#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>

namespace burst::parallel {

namespace {

// True on pool worker threads (set once in worker_loop).
thread_local bool t_on_worker = false;

// BURST_THREADS env override: positive integer -> worker count; anything
// else (unset, junk, <= 0) falls through to hardware concurrency.
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

std::mutex& global_mutex() {
  static std::mutex mu;
  return mu;
}

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = env_threads();
  }
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_work_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

ThreadPool& ThreadPool::global() {
  std::lock_guard lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>();
  }
  return *slot;
}

void ThreadPool::reset_global(std::size_t num_threads) {
  std::lock_guard lock(global_mutex());
  auto& slot = global_slot();
  slot.reset();  // join old workers before the new pool starts
  slot = std::make_unique<ThreadPool>(num_threads);
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ && drained
      }
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        cv_idle_.notify_all();
      }
    }
  }
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) {
    return;
  }
  grain = std::max<std::size_t>(1, grain);
  const std::size_t n = end - begin;
  const std::size_t chunks = (n + grain - 1) / grain;
  ThreadPool& pool = ThreadPool::global();
  // A worker must not block on chunks that may sit in the queue behind the
  // task it is running, so nested calls run inline.
  if (chunks == 1 || pool.size() == 1 || t_on_worker) {
    fn(begin, end);
    return;
  }
  // Completion is counted per call, so concurrent callers never wait on each
  // other's chunks. The count lives on this frame: the last chunk notifies
  // while holding the lock, so the frame outlives every access to it.
  struct Pending {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t left = 0;
  } pending;
  pending.left = chunks - 1;
  // Chunk boundaries are fixed multiples of `grain` from `begin`, regardless
  // of pool size. Chunk 0 runs on the caller to keep one chunk off the queue.
  for (std::size_t ci = 1; ci < chunks; ++ci) {
    const std::size_t b = begin + ci * grain;
    const std::size_t e = std::min(end, b + grain);
    pool.submit([&fn, &pending, b, e] {
      fn(b, e);
      std::lock_guard lock(pending.mutex);
      if (--pending.left == 0) {
        pending.done.notify_one();
      }
    });
  }
  fn(begin, begin + grain);
  std::unique_lock lock(pending.mutex);
  pending.done.wait(lock, [&pending] { return pending.left == 0; });
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for(0, n, grain, fn);
}

}  // namespace burst::parallel
