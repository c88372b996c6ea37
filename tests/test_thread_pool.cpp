#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

namespace burst::parallel {
namespace {

TEST(ThreadPool, ExecutesAllSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(1);
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, 10, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(0, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeRunsSerially) {
  std::vector<int> hits(3, 0);
  parallel_for(3, 100, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits[i] += 1;
    }
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ParallelFor, RangeOverloadCoversExactlyOnce) {
  std::vector<std::atomic<int>> hits(30);
  parallel_for(5, 25, 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 5 && i < 25) ? 1 : 0) << "index " << i;
  }
}

// Chunk boundaries must be fixed multiples of `grain` from `begin` for every
// pool size — the contract the kernels' bitwise determinism rests on.
TEST(ParallelFor, ChunkBoundariesIndependentOfPoolSize) {
  const auto collect = [] {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    parallel_for(3, 50, 8, [&](std::size_t b, std::size_t e) {
      std::lock_guard lock(mu);
      chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };

  // A single worker takes the serial fallback: one fn(begin, end) call.
  // That merges chunks but never splits one, so per-element work — and with
  // it the kernels' arithmetic order — is unchanged.
  ThreadPool::reset_global(1);
  const std::vector<std::pair<std::size_t, std::size_t>> serial = {{3, 50}};
  EXPECT_EQ(collect(), serial);

  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {3, 11}, {11, 19}, {19, 27}, {27, 35}, {35, 43}, {43, 50}};
  for (std::size_t workers : {2u, 8u}) {
    ThreadPool::reset_global(workers);
    EXPECT_EQ(collect(), expected) << "pool size " << workers;
  }
  ThreadPool::reset_global();
}

TEST(ThreadPool, BurstThreadsEnvOverridesGlobalPoolSize) {
  ASSERT_EQ(setenv("BURST_THREADS", "3", /*overwrite=*/1), 0);
  ThreadPool::reset_global();
  EXPECT_EQ(ThreadPool::global().size(), 3u);

  // Junk values fall back to hardware concurrency (>= 1), never crash.
  ASSERT_EQ(setenv("BURST_THREADS", "nope", 1), 0);
  ThreadPool::reset_global();
  EXPECT_GE(ThreadPool::global().size(), 1u);

  ASSERT_EQ(unsetenv("BURST_THREADS"), 0);
  ThreadPool::reset_global();
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ParallelFor, SumReductionCorrect) {
  std::atomic<long long> total{0};
  parallel_for(10000, 64, [&](std::size_t b, std::size_t e) {
    long long local = 0;
    for (std::size_t i = b; i < e; ++i) {
      local += static_cast<long long>(i);
    }
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 10000LL * 9999 / 2);
}

// A parallel_for issued from inside a chunk runs on a pool worker. Waiting
// there for queued chunks, the way an outside caller does, can leave every
// worker waiting with nothing left to drain the queue.
TEST(ParallelFor, NestedCallCompletesAtEveryPoolSize) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 50;  // 13 chunks at grain 4
  for (std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool::reset_global(workers);
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    parallel_for(kOuter, 1, [&hits](std::size_t ob, std::size_t oe) {
      for (std::size_t o = ob; o < oe; ++o) {
        parallel_for(kInner, 4, [&hits, o](std::size_t ib, std::size_t ie) {
          for (std::size_t i = ib; i < ie; ++i) {
            hits[o * kInner + i].fetch_add(1);
          }
        });
      }
    });
    for (auto& h : hits) {
      EXPECT_EQ(h.load(), 1) << "pool size " << workers;
    }
  }
  ThreadPool::reset_global();
}

// Each call waits for its own chunks only: two threads calling parallel_for
// at once each find their whole range covered exactly once on return.
TEST(ParallelFor, ConcurrentCallersEachCoverTheirRangeOnce) {
  ThreadPool::reset_global(4);
  constexpr std::size_t kN = 2000;
  constexpr int kRepeats = 20;
  const auto cover = [](std::vector<std::atomic<int>>& hits, bool& exact) {
    for (int rep = 1; rep <= kRepeats; ++rep) {
      parallel_for(hits.size(), 16, [&hits](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          hits[i].fetch_add(1);
        }
      });
      for (const auto& h : hits) {
        exact = exact && h.load() == rep;
      }
    }
  };
  std::vector<std::atomic<int>> first(kN);
  std::vector<std::atomic<int>> second(kN);
  bool first_exact = true;
  bool second_exact = true;
  std::thread t1(cover, std::ref(first), std::ref(first_exact));
  std::thread t2(cover, std::ref(second), std::ref(second_exact));
  t1.join();
  t2.join();
  EXPECT_TRUE(first_exact);
  EXPECT_TRUE(second_exact);
  ThreadPool::reset_global();
}

}  // namespace
}  // namespace burst::parallel
