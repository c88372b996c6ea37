// Microbenchmarks of the single-device kernels (google-benchmark):
// flash-style attention forward/backward across mask types and shard maps
// (contiguous, zigzag, striped), tile-skip effectiveness, and the three
// LM-head implementations. These document the substrate the functional
// simulator charges time against.
#include <benchmark/benchmark.h>

#include "reporter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "kernels/flash_attention.hpp"
#include "kernels/lm_head.hpp"
#include "kernels/reference_attention.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"
#include "tensor/workspace.hpp"

namespace {

using namespace burst;
using kernels::IndexMap;
using kernels::MaskSpec;
using tensor::Rng;
using tensor::Tensor;

MaskSpec mask_for(int kind, std::int64_t n) {
  switch (kind) {
    case 0:
      return MaskSpec::full();
    case 1:
      return MaskSpec::causal();
    case 2:
      return MaskSpec::sliding_window(n / 8);
    default:
      return MaskSpec::block_sliding_window(n / 64, 2, 64);
  }
}

// The local rows of one rank under each workload-balance strategy, as the
// context-parallel kernels see them: rank 0 of two over a 2n-token
// sequence for zigzag (front and back chunk) and striped (every 2nd token).
enum MapKind { kRangeMap = 0, kZigzagMap = 1, kStripedMap = 2 };

IndexMap map_for(int kind, std::int64_t n) {
  switch (kind) {
    case kZigzagMap:
      return IndexMap::segments({{0, n / 2}, {3 * n / 2, n / 2}});
    case kStripedMap:
      return IndexMap::strided(0, 2, n);
    default:
      return IndexMap::range(0, n);
  }
}

const char* map_name(int kind) {
  return kind == kZigzagMap ? "zigzag" : kind == kStripedMap ? "striped"
                                                              : "range";
}

void BM_FlashForward(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t d = 32;
  Rng rng(1);
  Tensor q = rng.gaussian(n, d, 1.0f);
  Tensor k = rng.gaussian(n, d, 1.0f);
  Tensor v = rng.gaussian(n, d, 1.0f);
  const MaskSpec mask = mask_for(static_cast<int>(state.range(1)), n);
  const IndexMap map = map_for(static_cast<int>(state.range(2)), n);
  kernels::KernelStats stats;
  for (auto _ : state) {
    auto r = kernels::flash_forward(q, map, k, v, map, mask, 0.2f, &stats);
    benchmark::DoNotOptimize(r.o.data());
  }
  // `flops` counts only unmasked pairs (post tile-skip), so this rate is
  // effective GFLOP/s of useful attention work.
  state.counters["GFLOP/s"] =
      benchmark::Counter(static_cast<double>(stats.flops) / 1e9,
                         benchmark::Counter::kIsRate);
  state.counters["tiles_skipped"] = static_cast<double>(stats.tiles_skipped) /
                                    static_cast<double>(state.iterations());
  state.SetLabel(map_name(static_cast<int>(state.range(2))));
}
BENCHMARK(BM_FlashForward)
    ->ArgsProduct({{256, 512}, {0, 1, 2, 3}, {kRangeMap, kZigzagMap, kStripedMap}})
    ->Unit(benchmark::kMicrosecond);

void BM_FlashBackward(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t d = 32;
  Rng rng(2);
  Tensor q = rng.gaussian(n, d, 1.0f);
  Tensor k = rng.gaussian(n, d, 1.0f);
  Tensor v = rng.gaussian(n, d, 1.0f);
  Tensor d_out = rng.gaussian(n, d, 1.0f);
  const MaskSpec mask = MaskSpec::causal();
  const IndexMap map = map_for(static_cast<int>(state.range(1)), n);
  auto fwd = kernels::flash_forward(q, map, k, v, map, mask, 0.2f);
  Tensor dvec = kernels::attention_dvec(d_out, fwd.o);
  kernels::KernelStats stats;
  for (auto _ : state) {
    Tensor dq = Tensor::zeros(n, d);
    Tensor dk = Tensor::zeros(n, d);
    Tensor dv = Tensor::zeros(n, d);
    kernels::flash_backward_partial(q, map, k, v, map, mask, 0.2f, d_out,
                                    fwd.lse, dvec, dq, dk, dv, &stats);
    benchmark::DoNotOptimize(dq.data());
  }
  state.counters["GFLOP/s"] =
      benchmark::Counter(static_cast<double>(stats.flops) / 1e9,
                         benchmark::Counter::kIsRate);
  state.SetLabel(map_name(static_cast<int>(state.range(1))));
}
BENCHMARK(BM_FlashBackward)
    ->ArgsProduct({{256, 512}, {kRangeMap, kZigzagMap, kStripedMap}})
    ->Unit(benchmark::kMicrosecond);

void BM_ReferenceAttention(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t d = 32;
  Rng rng(3);
  Tensor q = rng.gaussian(n, d, 1.0f);
  Tensor k = rng.gaussian(n, d, 1.0f);
  Tensor v = rng.gaussian(n, d, 1.0f);
  const IndexMap id = IndexMap::range(0, n);
  for (auto _ : state) {
    auto r = kernels::reference_attention_forward(q, id, k, v, id,
                                                  MaskSpec::causal(), 0.2f);
    benchmark::DoNotOptimize(r.o.data());
  }
}
BENCHMARK(BM_ReferenceAttention)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_LmHead(benchmark::State& state) {
  const std::int64_t n = 128;
  const std::int64_t d = 64;
  const std::int64_t v = 512;
  Rng rng(4);
  Tensor h = rng.gaussian(n, d, 0.7f);
  Tensor w = rng.gaussian(v, d, 0.7f);
  std::vector<std::int64_t> targets;
  for (std::int64_t i = 0; i < n; ++i) {
    targets.push_back(rng.next_index(v));
  }
  const int variant = static_cast<int>(state.range(0));
  std::uint64_t scratch = 0;
  for (auto _ : state) {
    kernels::LmHeadResult r;
    switch (variant) {
      case 0:
        r = kernels::naive_lm_head_loss(h, w, targets);
        break;
      case 1:
        r = kernels::tiled_recompute_lm_head_loss(
            h, w, targets, kernels::kLmHeadStripRows, kernels::kLmHeadTileCols);
        break;
      default:
        r = kernels::fused_lm_head_loss(h, w, targets,
                                       kernels::kLmHeadStripRows,
                                       kernels::kLmHeadTileCols);
        break;
    }
    scratch = r.peak_scratch_bytes;
    benchmark::DoNotOptimize(r.loss);
  }
  state.counters["scratch_bytes"] = static_cast<double>(scratch);
  state.SetLabel(variant == 0   ? "naive"
                 : variant == 1 ? "tiled-recompute"
                                : "fused(Alg3)");
}
BENCHMARK(BM_LmHead)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// Seconds for `calls` back-to-back runs of `fn`.
template <typename Fn>
double batch_seconds(int calls, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < calls; ++c) {
    fn();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// A single-thread causal attention problem over a 512-row shard (d = 32),
// timed in batches of ten forward or backward calls. Construction runs one
// forward and one backward, which grows the workspace and counts the useful
// FLOPs of one call of each.
class CausalShard {
 public:
  static constexpr std::int64_t kN = 512;
  static constexpr std::int64_t kD = 32;
  static constexpr int kCalls = 10;

  explicit CausalShard(int map_kind) : map_(map_for(map_kind, kN)) {
    Rng rng(5);
    q_ = rng.gaussian(kN, kD, 1.0f);
    k_ = rng.gaussian(kN, kD, 1.0f);
    v_ = rng.gaussian(kN, kD, 1.0f);
    d_out_ = rng.gaussian(kN, kD, 1.0f);
    kernels::KernelStats fwd_stats;
    auto fwd = kernels::flash_forward(q_, map_, k_, v_, map_,
                                      MaskSpec::causal(), 0.2f, &fwd_stats);
    fwd_flops_ = static_cast<double>(fwd_stats.flops);
    lse_ = std::move(fwd.lse);
    dvec_ = kernels::attention_dvec(d_out_, fwd.o);
    kernels::KernelStats bwd_stats;
    backward(&bwd_stats);
    bwd_flops_ = static_cast<double>(bwd_stats.flops);
  }

  double forward_batch() const {
    return batch_seconds(kCalls, [&] {
      auto r = kernels::flash_forward(q_, map_, k_, v_, map_,
                                      MaskSpec::causal(), 0.2f);
      benchmark::DoNotOptimize(r.o.data());
    });
  }
  double backward_batch() const {
    return batch_seconds(kCalls, [&] { backward(nullptr); });
  }
  double fwd_flops_per_batch() const { return fwd_flops_ * kCalls; }
  double bwd_flops_per_batch() const { return bwd_flops_ * kCalls; }

 private:
  void backward(kernels::KernelStats* stats) const {
    Tensor dq = Tensor::zeros(kN, kD);
    Tensor dk = Tensor::zeros(kN, kD);
    Tensor dv = Tensor::zeros(kN, kD);
    kernels::flash_backward_partial(q_, map_, k_, v_, map_, MaskSpec::causal(),
                                    0.2f, d_out_, lse_, dvec_, dq, dk, dv,
                                    stats);
    benchmark::DoNotOptimize(dq.data());
  }

  IndexMap map_;
  Tensor q_, k_, v_, d_out_, lse_, dvec_;
  double fwd_flops_ = 0.0;
  double bwd_flops_ = 0.0;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the timing tables still come
// from google-benchmark, but the run also emits the shared RunReport so
// scripts/verify.sh can gate on it like every other bench.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  burst::bench::Reporter rep("micro_kernels");
  // Observation-only kernel counters (tiles computed/skipped, workspace
  // high-water) ride along in the RunReport's metrics block.
  burst::obs::Registry registry;
  burst::kernels::attach_attention_metrics(&registry);
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  rep.measurement("benchmarks_run", static_cast<double>(ran));
  rep.check(ran > 0, "at least one benchmark ran");

  // ---- regression-gate section: single-thread causal attention at
  // n = 512, the fused LM head at train_1dev's shape and a single-thread
  // 512^3 GEMM, timed alternately (best of ten batches each) so host noise
  // hits every side alike. Three ratios are machine-portable: zigzag over
  // contiguous forward (a classification or masking slow path on
  // non-contiguous maps shows up however fast the host is), and contiguous
  // attention forward and the LM head over the GEMM (kernels that fall off
  // the packed GEMM kernel's speed show up).
  {
    burst::parallel::ThreadPool::reset_global(1);
    const CausalShard range(kRangeMap);
    const CausalShard zigzag(kZigzagMap);
    // The attention kernels' scratch, read before the GEMM's panels land in
    // the same arena.
    rep.measurement(
        "attn_workspace_high_water_bytes",
        static_cast<double>(
            burst::tensor::Workspace::tls().high_water_bytes()),
        burst::obs::RunReport::kNoPaperValue, "bytes");
    constexpr std::int64_t kGemmN = 512;
    constexpr int kGemmCalls = 4;
    Rng grng(6);
    const Tensor ga = grng.gaussian(kGemmN, kGemmN, 1.0f);
    const Tensor gb = grng.gaussian(kGemmN, kGemmN, 1.0f);
    Tensor gc(kGemmN, kGemmN);
    const auto gemm_batch = [&] {
      return batch_seconds(kGemmCalls, [&] {
        tensor::gemm(ga.view(), tensor::Trans::No, gb.view(),
                     tensor::Trans::No, gc.view());
        benchmark::DoNotOptimize(gc.data());
      });
    };
    gemm_batch();  // warm-up grows the workspace
    constexpr std::int64_t kLmN = 1024;
    constexpr std::int64_t kLmV = 2048;
    constexpr std::int64_t kLmD = 256;
    const Tensor lh = grng.gaussian(kLmN, kLmD, 0.7f);
    const Tensor lw = grng.gaussian(kLmV, kLmD, 0.7f);
    std::vector<std::int64_t> lt;
    for (std::int64_t i = 0; i < kLmN; ++i) {
      lt.push_back(grng.next_index(kLmV));
    }
    double lm_flops = 0.0;
    const auto lm_batch = [&] {
      return batch_seconds(1, [&] {
        const kernels::LmHeadResult r = kernels::fused_lm_head_loss(
            lh, lw, lt, kernels::kLmHeadStripRows, kernels::kLmHeadTileCols);
        lm_flops = static_cast<double>(r.flops);
        benchmark::DoNotOptimize(r.loss);
      });
    };
    lm_batch();  // warm-up
    double range_s = 1e30;
    double zigzag_s = 1e30;
    double bwd_s = 1e30;
    double gemm_s = 1e30;
    double lm_s = 1e30;
    for (int rep_i = 0; rep_i < 10; ++rep_i) {
      range_s = std::min(range_s, range.forward_batch());
      gemm_s = std::min(gemm_s, gemm_batch());
      lm_s = std::min(lm_s, lm_batch());
      zigzag_s = std::min(zigzag_s, zigzag.forward_batch());
      bwd_s = std::min(bwd_s, range.backward_batch());
    }
    const double range_gflops = range.fwd_flops_per_batch() / range_s / 1e9;
    const double zigzag_gflops = zigzag.fwd_flops_per_batch() / zigzag_s / 1e9;
    const double bwd_gflops = range.bwd_flops_per_batch() / bwd_s / 1e9;
    const double gemm_gflops =
        2.0 * static_cast<double>(kGemmN * kGemmN * kGemmN) * kGemmCalls /
        gemm_s / 1e9;
    const double lm_gflops = lm_flops / lm_s / 1e9;
    rep.measurement("attn_fwd_causal_512_st_gflops", range_gflops,
                    burst::obs::RunReport::kNoPaperValue, "GFLOP/s");
    rep.measurement("attn_fwd_zigzag_512_st_gflops", zigzag_gflops,
                    burst::obs::RunReport::kNoPaperValue, "GFLOP/s");
    rep.measurement("attn_bwd_causal_512_st_gflops", bwd_gflops,
                    burst::obs::RunReport::kNoPaperValue, "GFLOP/s");
    rep.measurement("gemm_512_st_gflops", gemm_gflops,
                    burst::obs::RunReport::kNoPaperValue, "GFLOP/s");
    rep.measurement("lm_head_fused_st_gflops", lm_gflops,
                    burst::obs::RunReport::kNoPaperValue, "GFLOP/s");
    rep.measurement("attn_fwd_zigzag_over_range",
                    zigzag_gflops / range_gflops);
    rep.measurement("attn_fwd_over_gemm_st", range_gflops / gemm_gflops);
    rep.measurement("lm_head_over_gemm_st", lm_gflops / gemm_gflops);
    burst::parallel::ThreadPool::reset_global();
  }
  rep.check(registry.counter("kernels.attn.tiles_computed").value() > 0,
            "attention kernels reported tile counters");
  rep.attach_registry(registry);
  burst::kernels::attach_attention_metrics(nullptr);
  return rep.finish();
}
