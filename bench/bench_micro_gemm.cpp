// GEMM microbenchmark (google-benchmark): throughput of the packed
// microkernel behind every matmul in the functional path, plus the
// regression gate for the bench-compare script: single-thread 512^3 GFLOP/s
// for the packed kernel and for the pre-packing scalar implementation it
// replaced, and their ratio (the `gate: true` metric in BENCH_baseline.json).
#include <benchmark/benchmark.h>

#include "reporter.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace burst::tensor;

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = rng.gaussian(n, n, 1.0f);
  Tensor b = rng.gaussian(n, n, 1.0f);
  Tensor c(n, n);
  for (auto _ : state) {
    gemm(a.view(), Trans::No, b.view(), Trans::No, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) *
          static_cast<double>(n) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_GemmTransposed(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(2);
  Tensor a = rng.gaussian(n, n, 1.0f);
  Tensor b = rng.gaussian(n, n, 1.0f);
  Tensor c(n, n);
  for (auto _ : state) {
    gemm(a.view(), Trans::No, b.view(), Trans::Yes, c.view());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmTransposed)->Arg(128)->Unit(benchmark::kMicrosecond);

// The scalar tiled GEMM this PR's packed kernel replaced, kept verbatim as
// the speedup baseline (including the `av == 0` skip it used to take).
// Compiled with the bench's portable flags, serial — the "seed scalar,
// single thread" denominator of the gate metric.
void scalar_seed_gemm(ConstMatView a, ConstMatView b, MatView c) {
  constexpr std::int64_t kTileM = 32;
  constexpr std::int64_t kTileN = 64;
  constexpr std::int64_t kTileK = 64;
  const std::int64_t m = a.rows;
  const std::int64_t k = a.cols;
  const std::int64_t n = b.cols;
  for (std::int64_t i = 0; i < m; ++i) {
    std::fill(c.data + i * c.stride, c.data + i * c.stride + n, 0.0f);
  }
  for (std::int64_t ib = 0; ib < m; ib += kTileM) {
    const std::int64_t ie = std::min(m, ib + kTileM);
    for (std::int64_t kb = 0; kb < k; kb += kTileK) {
      const std::int64_t ke = std::min(k, kb + kTileK);
      for (std::int64_t jb = 0; jb < n; jb += kTileN) {
        const std::int64_t je = std::min(n, jb + kTileN);
        for (std::int64_t i = ib; i < ie; ++i) {
          float* crow = c.data + i * c.stride;
          for (std::int64_t kk = kb; kk < ke; ++kk) {
            const float av = a(i, kk);
            if (av == 0.0f) {
              continue;
            }
            const float* brow = b.data + kk * b.stride;
            for (std::int64_t j = jb; j < je; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      }
    }
  }
}

// Seconds for one fn() call.
template <typename Fn>
double seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Best-of-`reps` seconds for one fn() call.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    best = std::min(best, seconds(fn));
  }
  return best;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the timing tables still come
// from google-benchmark, but the run also emits the shared RunReport so
// scripts/verify.sh can gate on it like every other bench.
int main(int argc, char** argv) {
  using namespace burst::tensor;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  burst::bench::Reporter rep("micro_gemm");
  burst::obs::Registry registry;
  attach_gemm_metrics(&registry);
  burst::parallel::attach_pool_metrics(&registry);
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  rep.measurement("benchmarks_run", static_cast<double>(ran));
  rep.check(ran > 0, "at least one benchmark ran");

  // ---- regression-gate section: single-thread 512^3 packed vs scalar ----
  {
    burst::parallel::ThreadPool::reset_global(1);
    const std::int64_t n = 512;
    const double flop = 2.0 * static_cast<double>(n) * n * n;
    Rng rng(3);
    Tensor a = rng.gaussian(n, n, 1.0f);
    Tensor b = rng.gaussian(n, n, 1.0f);
    Tensor c(n, n);
    // Warm-up grows the workspace and faults the pages before timing.
    gemm(a.view(), Trans::No, b.view(), Trans::No, c.view());
    scalar_seed_gemm(a.view(), b.view(), c.view());
    // Both sides of the gated ratio are timed in one interleaved loop, so a
    // slow stretch of the host (frequency, a noisy neighbour) hits both
    // alike, and each side keeps its best of `reps` repetitions. A packed
    // sample runs `packed_calls` GEMMs back to back so it lasts about as
    // long as one scalar GEMM: a short sample could slip between two
    // preemptions that a long one cannot, which skews the ratio.
    constexpr int reps = 100;
    constexpr int packed_calls = 5;
    double packed_s = 1e300;
    double scalar_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      packed_s = std::min(packed_s, seconds([&] {
                            for (int i = 0; i < packed_calls; ++i) {
                              gemm(a.view(), Trans::No, b.view(), Trans::No,
                                   c.view());
                              benchmark::DoNotOptimize(c.data());
                            }
                          }) / packed_calls);
      scalar_s = std::min(scalar_s, seconds([&] {
        scalar_seed_gemm(a.view(), b.view(), c.view());
        benchmark::DoNotOptimize(c.data());
      }));
    }
    const double packed_gflops = flop / packed_s / 1e9;
    const double scalar_gflops = flop / scalar_s / 1e9;
    const double speedup = packed_gflops / scalar_gflops;
    rep.measurement("gemm_512_st_gflops", packed_gflops,
                    burst::obs::RunReport::kNoPaperValue, "GFLOP/s");
    rep.measurement("gemm_512_st_scalar_gflops", scalar_gflops,
                    burst::obs::RunReport::kNoPaperValue, "GFLOP/s");
    rep.measurement("gemm_512_st_speedup", speedup);
    rep.measurement("gemm_512_st_reps", reps,
                    burst::obs::RunReport::kNoPaperValue, "count");
    rep.check(speedup >= 3.0,
              "packed GEMM >= 3x seed scalar at 512^3 single-thread");
    burst::parallel::ThreadPool::reset_global();
  }

  // ---- quantized gate: 512-wide streaming (bandwidth-bound) regime -------
  // Where quantization pays on CPU: decode-like GEMMs (a few query rows
  // against a 512x512 weight tile) cycling over a weight working set far
  // beyond the LLC, so every pass re-streams the packed panels from DRAM.
  // The fp32 panels stream 4 B/el; Q8_0 1.125 B/el; Q4_0 0.625 B/el — the
  // dequantize-in-microkernel variants convert that byte saving into
  // wall-clock speedup. (At hot-cache 512^3 the fp32 FMA kernel is
  // compute-bound and quantization cannot win; that regime is covered by
  // the gate above.)
  {
    burst::parallel::ThreadPool::reset_global(1);
    const std::int64_t m = 4;    // decode-like batch: one microkernel row block
    const std::int64_t n = 512;  // one cache-block-wide weight tile
    const std::int64_t k = 512;
    const std::int64_t count = 96;  // 96 MB of fp32 panels >> LLC
    Rng rng(4);
    Tensor a = rng.gaussian(m, k, 1.0f);
    Tensor b = rng.gaussian(k, n, 1.0f);
    Tensor c(m, n);
    struct Run {
      double seconds = 0.0;
      double bytes = 0.0;  // packed panel bytes streamed per pass
    };
    const auto run_set = [&](DType dt) {
      std::vector<PackedB> set;
      set.reserve(static_cast<std::size_t>(count));
      double bytes = 0.0;
      for (std::int64_t i = 0; i < count; ++i) {
        set.push_back(PackedB::pack(b.view(), Trans::No, dt));
        bytes += static_cast<double>(set.back().storage_bytes());
      }
      for (const PackedB& p : set) {  // warm-up pass faults every panel
        gemm_packed(a.view(), Trans::No, p, c.view());
      }
      const double s = best_seconds(5, [&] {
        for (const PackedB& p : set) {
          gemm_packed(a.view(), Trans::No, p, c.view());
        }
        benchmark::DoNotOptimize(c.data());
      });
      return Run{s, bytes};
    };
    const Run f32 = run_set(DType::kF32);
    const Run q8 = run_set(DType::kQ8_0);
    const Run q4 = run_set(DType::kQ4_0);
    const double q8_speedup = f32.seconds / q8.seconds;
    const double q4_speedup = f32.seconds / q4.seconds;
    rep.measurement("gemm_512_q8_speedup", q8_speedup);
    rep.measurement("gemm_512_q4_speedup", q4_speedup);
    rep.measurement("gemm_512_f32_stream_gbps", f32.bytes / f32.seconds / 1e9,
                    burst::obs::RunReport::kNoPaperValue, "GB/s");
    rep.measurement("gemm_512_q8_stream_gbps", q8.bytes / q8.seconds / 1e9,
                    burst::obs::RunReport::kNoPaperValue, "GB/s");
    rep.measurement("gemm_512_q4_stream_gbps", q4.bytes / q4.seconds / 1e9,
                    burst::obs::RunReport::kNoPaperValue, "GB/s");
    rep.check(q8_speedup >= 1.5,
              "Q8_0 >= 1.5x fp32 packed GEMM in the streaming regime");
    rep.check(q4_speedup >= 1.5,
              "Q4_0 >= 1.5x fp32 packed GEMM in the streaming regime");
    burst::parallel::ThreadPool::reset_global();
  }

  // ---- fork-join dispatch and the small-m column split ------------------
  // parallel_for_dispatch_us: median wall time of a parallel_for whose
  // chunks do nothing, at the full pool (what every split pays; the caller
  // claims such chunks alone, so it cannot see parked helpers).
  // parallel_for_2us_job_us and parallel_for_2us_helper_share: median wall
  // time of a job of one 2 us chunk per way issued after 30 us of serial
  // work on the caller (the gap between a decode iteration's GEMMs), and
  // the share of its chunks the helpers ran (from the pool counters). A job
  // that scales takes about 2 us with a share near (ways - 1) / ways; one
  // whose helpers parked in the gap runs on the caller alone in about 2 us
  // per way, or waits for a wake.
  // gemm_m16_speedup: a decode-shaped 16x256x2048 kF32 gemm_packed at the
  // full pool over one thread; m = 16 is one row block, so any speedup
  // comes from the column split; gemm_m16_helper_share is the helpers'
  // share of its chunks. All depend on the host's core count and are
  // informational.
  {
    const std::size_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    burst::parallel::ThreadPool::reset_global(nproc);
    const auto median_us = [](std::vector<double> s) {
      std::nth_element(s.begin(), s.begin() + s.size() / 2, s.end());
      return s[s.size() / 2] * 1e6;
    };
    const auto helper_share = [&](auto&& fn) {
      const auto& caller = registry.counter("parallel.pool.chunks_caller");
      const auto& helper = registry.counter("parallel.pool.chunks_helper");
      const double c0 = static_cast<double>(caller.value());
      const double h0 = static_cast<double>(helper.value());
      fn();
      const double c = static_cast<double>(caller.value()) - c0;
      const double h = static_cast<double>(helper.value()) - h0;
      return c + h > 0.0 ? h / (c + h) : 0.0;
    };
    std::vector<double> dispatch_s;
    for (int r = 0; r < 2001; ++r) {
      dispatch_s.push_back(seconds([&] {
        burst::parallel::parallel_for(nproc, 1,
                                      [](std::size_t, std::size_t) {});
      }));
    }
    rep.measurement("parallel_for_dispatch_us", median_us(dispatch_s),
                    burst::obs::RunReport::kNoPaperValue, "us");

    const auto spin_for = [](std::chrono::microseconds d) {
      const auto t0 = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - t0 < d) {
      }
    };
    std::vector<double> job_s;
    const double job_share = helper_share([&] {
      for (int r = 0; r < 2001; ++r) {
        spin_for(std::chrono::microseconds(30));
        job_s.push_back(seconds([&] {
          burst::parallel::parallel_for(
              nproc, 1, [&](std::size_t, std::size_t) {
                spin_for(std::chrono::microseconds(2));
              });
        }));
      }
    });
    rep.measurement("parallel_for_2us_job_us", median_us(job_s),
                    burst::obs::RunReport::kNoPaperValue, "us");
    rep.measurement("parallel_for_2us_helper_share", job_share);

    Rng rng(5);
    const Tensor a = rng.gaussian(16, 256, 1.0f);
    const Tensor w = rng.gaussian(256, 2048, 1.0f);
    const PackedB packed = PackedB::pack(w.view(), Trans::No, DType::kF32);
    Tensor c(16, 2048);
    double share = 0.0;
    const auto timed = [&](std::size_t ways) {
      burst::parallel::ThreadPool::reset_global(ways);
      gemm_packed(a.view(), Trans::No, packed, c.view());  // warm-up
      double best = 0.0;
      share = helper_share([&] {
        best = best_seconds(200, [&] {
          gemm_packed(a.view(), Trans::No, packed, c.view());
          benchmark::DoNotOptimize(c.data());
        });
      });
      return best;
    };
    const double one_s = timed(1);
    const double all_s = timed(nproc);
    rep.measurement("gemm_m16_speedup", one_s / all_s);
    rep.measurement("gemm_m16_helper_share", share);
    burst::parallel::ThreadPool::reset_global();
  }

  rep.attach_registry(registry);
  attach_gemm_metrics(nullptr);
  burst::parallel::attach_pool_metrics(nullptr);
  return rep.finish();
}
