#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace burst::parallel {
namespace {

// Every chunk of a parallel_for on a two-way pool runs exactly once.
TEST(ThreadPool, RunsEveryChunkOnTwoWayPool) {
  ThreadPool::reset_global(2);
  std::atomic<int> count{0};
  parallel_for(100, 1, [&count](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b), std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
  ThreadPool::reset_global();
}

// A pool that never ran a job wakes and joins its parked helpers.
TEST(ThreadPool, IdlePoolJoinsPromptly) {
  for (std::size_t ways : {1u, 2u, 4u}) {
    ThreadPool pool(ways);
    EXPECT_EQ(pool.size(), ways);
  }
}

// Rebuilding the global pool after jobs joins the old helpers only once
// every chunk of every job has run.
TEST(ThreadPool, ResetAfterJobsLosesNoChunk) {
  std::atomic<int> count{0};
  ThreadPool::reset_global(2);
  for (int i = 0; i < 50; ++i) {
    parallel_for(4, 1, [&count](std::size_t b, std::size_t e) {
      count.fetch_add(static_cast<int>(e - b));
    });
  }
  ThreadPool::reset_global();
  EXPECT_EQ(count.load(), 200);
}

// Helpers park after their spin budget; a dispatch must wake them (or run
// on the caller) and complete.
TEST(ThreadPool, DispatchAfterHelpersParkCompletes) {
  ThreadPool::reset_global(4);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<std::atomic<int>> hits(64);
    parallel_for(hits.size(), 1, [&hits](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        hits[i].fetch_add(1);
      }
    });
    for (auto& h : hits) {
      EXPECT_EQ(h.load(), 1) << "round " << round;
    }
  }
  ThreadPool::reset_global();
}

TEST(ThreadPool, RepeatedResetWhileIdle) {
  for (int i = 0; i < 40; ++i) {
    ThreadPool::reset_global(static_cast<std::size_t>(1 + i % 4));
  }
  std::atomic<int> count{0};
  parallel_for(32, 1, [&count](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 32);
  ThreadPool::reset_global();
}

// The first exception a chunk throws reaches the caller after the join,
// and the pool stays usable.
TEST(ThreadPool, ChunkExceptionPropagatesToCaller) {
  ThreadPool::reset_global(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(16, 1,
                            [&ran](std::size_t b, std::size_t) {
                              ran.fetch_add(1);
                              if (b == 5) {
                                throw std::runtime_error("chunk 5");
                              }
                            }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 16);
  std::atomic<int> count{0};
  parallel_for(16, 1, [&count](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 16);
  ThreadPool::reset_global();
}

// concurrency() is the pool size outside a job and 1 inside a chunk or on
// a one-way pool.
TEST(ThreadPool, ConcurrencyIsOneInsideAChunk) {
  ThreadPool::reset_global(4);
  EXPECT_EQ(concurrency(), 4u);
  std::vector<std::size_t> inside(8, 0);
  parallel_for(inside.size(), 1, [&inside](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      inside[i] = concurrency();
    }
  });
  for (std::size_t c : inside) {
    EXPECT_EQ(c, 1u);
  }
  ThreadPool::reset_global(1);
  EXPECT_EQ(concurrency(), 1u);
  ThreadPool::reset_global();
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

  // A one-way pool takes the serial fallback: one fn(begin, end) call.
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

// Each call waits for its own chunks only: non-worker threads calling
// parallel_for at once (one holds the job slot, the others run inline) each
// find their whole range covered exactly once on return.
TEST(ParallelFor, ConcurrentCallersEachCoverTheirRangeOnce) {
  ThreadPool::reset_global(4);
  constexpr std::size_t kN = 2000;
  constexpr int kRepeats = 20;
  constexpr int kCallers = 4;
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
  std::vector<std::vector<std::atomic<int>>> hits;
  for (int c = 0; c < kCallers; ++c) {
    hits.emplace_back(kN);
  }
  std::vector<char> exact(kCallers, 1);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      bool ok = true;
      cover(hits[static_cast<std::size_t>(c)], ok);
      exact[static_cast<std::size_t>(c)] = ok ? 1 : 0;
    });
  }
  for (auto& t : callers) {
    t.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(exact[static_cast<std::size_t>(c)] != 0) << "caller " << c;
  }
  ThreadPool::reset_global();
}

}  // namespace
}  // namespace burst::parallel
