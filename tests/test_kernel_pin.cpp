// Output pins for the two compute kernels every step runs: the packed GEMM
// (every dtype, Trans combination and alpha/beta form) and the flash
// attention forward/backward partials (every shard-map kind, a dense, a
// causal and a block-sparse mask, several head dims, tile remainders, an
// empty query subset, a key range longer than one packing block, and
// strided views into a KV-cache-shaped buffer). Each hash is FNV-1a over
// the raw output bits plus the KernelStats the kernels report. The
// constants were recorded before the kernels moved to a taller register
// tile and prepacked attention panels; any change to the per-element
// arithmetic order changes a hash here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "kernels/flash_attention.hpp"
#include "kernels/lm_head.hpp"
#include "pin.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"

namespace burst {
namespace {

using kernels::IndexMap;
using kernels::KernelStats;
using kernels::MaskSpec;
using tensor::ConstMatView;
using tensor::DType;
using tensor::MatView;
using tensor::PackedB;
using tensor::Rng;
using tensor::Tensor;
using tensor::Trans;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// ---- GEMM ------------------------------------------------------------------

constexpr std::int64_t kGemmMs[] = {1, 3, 15, 16, 17, 31, 33, 64, 65, 130};

struct AlphaBeta {
  float alpha, beta;
};
constexpr AlphaBeta kAlphaBetas[] = {{1.0f, 0.0f}, {0.75f, 1.0f},
                                     {-1.25f, 0.5f}};

Tensor op_operand(Rng& rng, std::int64_t rows, std::int64_t cols, Trans t) {
  return t == Trans::No ? rng.gaussian(rows, cols, 1.0f)
                        : rng.gaussian(cols, rows, 1.0f);
}

const char* trans_name(Trans t) { return t == Trans::No ? "N" : "T"; }

// Runs `run(a, c, alpha, beta)` for every m and alpha/beta pair over a
// seeded C prefill and hashes every C. k = 300 crosses the 256-deep K block
// and the quantization-block edge; n is not a multiple of the panel width.
template <typename Run>
std::uint64_t gemm_sweep_hash(std::uint64_t seed, Trans ta, std::int64_t k,
                              std::int64_t n, Run&& run) {
  Fnv h;
  Rng rng(seed);
  for (const std::int64_t m : kGemmMs) {
    const Tensor a = op_operand(rng, m, k, ta);
    const Tensor c0 = rng.gaussian(m, n, 1.0f);
    for (const AlphaBeta& ab : kAlphaBetas) {
      Tensor c = c0;
      run(a, c, ab.alpha, ab.beta);
      h.tensor(c);
    }
  }
  return h.h;
}

TEST(KernelPin, GemmEveryTransAndRowCount) {
  constexpr std::int64_t k = 300;
  constexpr std::int64_t n = 90;
  const std::vector<Pin> want = {
      {"gemm NN", 0x775804d7e91c3b1fULL},
      {"gemm NT", 0x7d3ba50d1bc2a868ULL},
      {"gemm TN", 0xcebd3268ac60e72ULL},
      {"gemm TT", 0x8beb0a6d0b871d3ULL},
  };
  std::vector<std::uint64_t> got;
  for (const Trans ta : {Trans::No, Trans::Yes}) {
    for (const Trans tb : {Trans::No, Trans::Yes}) {
      Rng brng(11);
      const Tensor b = op_operand(brng, k, n, tb);
      got.push_back(gemm_sweep_hash(
          13, ta, k, n, [&](const Tensor& a, Tensor& c, float al, float be) {
            tensor::gemm(a.view(), ta, b.view(), tb, c.view(), al, be);
          }));
    }
  }
  expect_pins(want, got);
}

TEST(KernelPin, GemmPackedEveryDtype) {
  constexpr std::int64_t k = 300;
  constexpr std::int64_t n = 90;
  const std::vector<Pin> want = {
      {"packed f32 A=N B=N", 0x6dc72f96ba6e8f9ULL},  {"packed f32 A=N B=T", 0x808139120591ae3dULL},
      {"packed f32 A=T B=N", 0xdcc319483d893ac8ULL},  {"packed f32 A=T B=T", 0x8a20be839f6a06f0ULL},
      {"packed bf16 A=N B=N", 0xc31d62c887dffccdULL}, {"packed bf16 A=N B=T", 0xe558de48919cb0ddULL},
      {"packed bf16 A=T B=N", 0x2602cf1ce4237295ULL}, {"packed bf16 A=T B=T", 0x793e9423757b9036ULL},
      {"packed q8_0 A=N B=N", 0x591bc84f473ff44fULL},   {"packed q8_0 A=N B=T", 0x4f8149f43c984285ULL},
      {"packed q8_0 A=T B=N", 0xed3a925389b7d23fULL},   {"packed q8_0 A=T B=T", 0x1dc9a13b198df00dULL},
      {"packed q4_0 A=N B=N", 0x97a802c441e2d201ULL},   {"packed q4_0 A=N B=T", 0xa31a6e33e53e2023ULL},
      {"packed q4_0 A=T B=N", 0x5f002e1e0407b2a3ULL},   {"packed q4_0 A=T B=T", 0x808fff53e6f614d1ULL},
  };
  std::vector<std::uint64_t> got;
  std::vector<std::string> names;
  for (const DType dt :
       {DType::kF32, DType::kBf16, DType::kQ8_0, DType::kQ4_0}) {
    for (const Trans ta : {Trans::No, Trans::Yes}) {
      for (const Trans tb : {Trans::No, Trans::Yes}) {
        Rng brng(17);
        const Tensor b = op_operand(brng, k, n, tb);
        const PackedB pb = PackedB::pack(b.view(), tb, dt);
        names.push_back(std::string("packed ") + tensor::dtype_name(dt) + " A=" +
                        trans_name(ta) + " B=" + trans_name(tb));
        got.push_back(gemm_sweep_hash(
            19, ta, k, n, [&](const Tensor& a, Tensor& c, float al, float be) {
              tensor::gemm_packed(a.view(), ta, pb, c.view(), al, be);
            }));
      }
    }
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(names[i], want[i].name);
  }
  expect_pins(want, got);
}

// Wide and deep shapes: n crosses the 512-column N block, and the matmul
// helpers (fresh outputs) run next to gemm over strided sub-views.
TEST(KernelPin, GemmWideAndStridedViews) {
  Rng rng(23);
  Fnv h;
  const Tensor b = rng.gaussian(40, 530, 1.0f);
  const PackedB q8 = PackedB::pack(b.view(), Trans::No, DType::kQ8_0);
  for (const std::int64_t m : {1, 17, 33, 65}) {
    const Tensor a = rng.gaussian(m, 40, 1.0f);
    h.tensor(tensor::matmul(a, b));
    h.tensor(tensor::packed_matmul(a, q8));
  }
  const Tensor x = rng.gaussian(70, 96, 1.0f);
  const Tensor y = rng.gaussian(70, 96, 1.0f);
  h.tensor(tensor::matmul_nt(x, y));
  h.tensor(tensor::matmul_tn(x, y));
  // Sub-views with a row pitch wider than their columns, C included.
  Tensor c = rng.gaussian(48, 80, 1.0f);
  const ConstMatView av(x.data() + 3, 33, 50, x.cols());
  const ConstMatView bv(y.data() + 5, 20, 50, y.cols());
  const MatView cv{c.data() + 7, 33, 20, c.cols()};
  tensor::gemm(av, Trans::No, bv, Trans::Yes, cv, 0.5f, 2.0f);
  h.tensor(c);
  expect_pins({{"wide + views", 0xe29f31ef91f433e8ULL}}, {h.h});
}

// ---- attention -------------------------------------------------------------

// Rank r of two under each balance strategy over a 2n-token sequence.
IndexMap shard_map(int kind, std::int64_t n, int r) {
  switch (kind) {
    case 1: {
      const std::int64_t c = n / 2;
      return IndexMap::segments({{r * c, c}, {(3 - r) * c, c}});
    }
    case 2:
      return IndexMap::strided(r, 2, n);
    default:
      return IndexMap::range(r * n, n);
  }
}

MaskSpec pin_mask(int kind, std::int64_t total) {
  switch (kind) {
    case 0:
      return MaskSpec::full();
    case 1:
      return MaskSpec::causal();
    default: {
      constexpr std::int64_t kBlock = 8;
      return MaskSpec::block_sliding_window((total + kBlock - 1) / kBlock, 3,
                                            kBlock);
    }
  }
}

// Rank 1's queries against both ranks' K/V partitions, forward merged over
// the two partials, then the backward over the same two partials.
std::uint64_t shard_attention_hash(const MaskSpec& mask, int map_kind,
                                   std::int64_t n, std::int64_t d,
                                   std::uint64_t seed) {
  Rng rng(seed);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const IndexMap qmap = shard_map(map_kind, n, 1);
  Tensor q = rng.gaussian(n, d, 1.0f);
  Tensor k[2] = {rng.gaussian(n, d, 1.0f), rng.gaussian(n, d, 1.0f)};
  Tensor v[2] = {rng.gaussian(n, d, 1.0f), rng.gaussian(n, d, 1.0f)};
  Tensor d_out = rng.gaussian(n, d, 1.0f);

  Fnv h;
  KernelStats stats;
  Tensor o = Tensor::zeros(n, d);
  Tensor lse(n);
  lse.fill(kNegInf);
  for (int r = 0; r < 2; ++r) {
    kernels::flash_forward_partial(q, qmap, k[r], v[r],
                                   shard_map(map_kind, n, r), mask, scale, o,
                                   lse, &stats);
  }
  h.tensor(o);
  h.tensor(lse);
  h.stats(stats);

  const Tensor dvec = kernels::attention_dvec(d_out, o);
  Tensor dq = Tensor::zeros(n, d);
  for (int r = 0; r < 2; ++r) {
    Tensor dk = Tensor::zeros(n, d);
    Tensor dv = Tensor::zeros(n, d);
    kernels::flash_backward_partial(q, qmap, k[r], v[r],
                                    shard_map(map_kind, n, r), mask, scale,
                                    d_out, lse, dvec, dq, dk, dv, &stats);
    h.tensor(dk);
    h.tensor(dv);
  }
  h.tensor(dq);
  h.stats(stats);
  return h.h;
}

TEST(KernelPin, AttentionEveryMapMaskAndHeadDim) {
  // 76 rows per rank: two full 32-row tiles plus a 12-row remainder, and
  // zigzag chunks of 38 that split tiles across segments.
  constexpr std::int64_t n = 76;
  const std::vector<Pin> want = {
      {"full range", 0x4988d6baa56655e5ULL},    {"full zigzag", 0x4988d6baa56655e5ULL},
      {"full strided", 0x4988d6baa56655e5ULL},  {"causal range", 0x5bb5e72e6829e390ULL},
      {"causal zigzag", 0x2083a70a92ef24e5ULL}, {"causal strided", 0xc527a6a490566e0cULL},
      {"sparse range", 0x58111b619f64fa73ULL},  {"sparse zigzag", 0xeb542b5b485977d4ULL},
      {"sparse strided", 0x72b1021a141e5e6ULL},
  };
  std::vector<std::uint64_t> got;
  for (int mk = 0; mk < 3; ++mk) {
    const MaskSpec mask = pin_mask(mk, 2 * n);
    for (int map_kind = 0; map_kind < 3; ++map_kind) {
      Fnv h;
      for (const std::int64_t d : {16, 32, 64, 128}) {
        const std::uint64_t one = shard_attention_hash(
            mask, map_kind, n, d, 29 + static_cast<std::uint64_t>(d));
        h.bytes(&one, sizeof one);
      }
      got.push_back(h.h);
    }
  }
  expect_pins(want, got);
}

// A key partition several times longer than a query tile's worth of keys,
// so any internal blocking of the key range is crossed.
TEST(KernelPin, AttentionLongKeyRange) {
  Rng rng(31);
  constexpr std::int64_t nq = 40;
  constexpr std::int64_t nk = 1500;
  constexpr std::int64_t d = 32;
  const float scale = 0.125f;
  const IndexMap qmap = IndexMap::range(nk - nq, nq);
  const IndexMap kmap = IndexMap::range(0, nk);
  Tensor q = rng.gaussian(nq, d, 1.0f);
  Tensor k = rng.gaussian(nk, d, 1.0f);
  Tensor v = rng.gaussian(nk, d, 1.0f);
  Tensor d_out = rng.gaussian(nq, d, 1.0f);
  Fnv h;
  for (const MaskSpec& mask : {MaskSpec::full(), MaskSpec::causal(),
                               MaskSpec::sliding_window(700)}) {
    KernelStats stats;
    auto fwd = kernels::flash_forward(q, qmap, k, v, kmap, mask, scale, &stats);
    const Tensor dvec = kernels::attention_dvec(d_out, fwd.o);
    Tensor dq = Tensor::zeros(nq, d);
    Tensor dk = Tensor::zeros(nk, d);
    Tensor dv = Tensor::zeros(nk, d);
    kernels::flash_backward_partial(q, qmap, k, v, kmap, mask, scale, d_out,
                                    fwd.lse, dvec, dq, dk, dv, &stats);
    for (const Tensor* t : {&fwd.o, &fwd.lse, &dq, &dk, &dv}) {
      h.tensor(*t);
    }
    h.stats(stats);
  }
  expect_pins({{"long key range", 0x63fab0fd01ab3e00ULL}}, {h.h});
}

// A head dim deeper than one 256-deep GEMM K block: S = Q Kᵀ and dP = dO Vᵀ
// are summed one K block at a time, each block's sum added once.
TEST(KernelPin, AttentionHeadDimDeeperThanOneKBlock) {
  Rng rng(43);
  constexpr std::int64_t n = 40;
  constexpr std::int64_t d = 300;
  const IndexMap id = IndexMap::range(0, n);
  Tensor q = rng.gaussian(n, d, 1.0f);
  Tensor k = rng.gaussian(n, d, 1.0f);
  Tensor v = rng.gaussian(n, d, 1.0f);
  Tensor d_out = rng.gaussian(n, d, 1.0f);
  KernelStats stats;
  auto fwd = kernels::flash_forward(q, id, k, v, id, MaskSpec::causal(),
                                    0.05f, &stats);
  const Tensor dvec = kernels::attention_dvec(d_out, fwd.o);
  Tensor dq = Tensor::zeros(n, d);
  Tensor dk = Tensor::zeros(n, d);
  Tensor dv = Tensor::zeros(n, d);
  kernels::flash_backward_partial(q, id, k, v, id, MaskSpec::causal(), 0.05f,
                                  d_out, fwd.lse, dvec, dq, dk, dv, &stats);
  Fnv h;
  for (const Tensor* t : {&fwd.o, &fwd.lse, &dq, &dk, &dv}) {
    h.tensor(*t);
  }
  h.stats(stats);
  expect_pins({{"head dim 300", 0xe882886a185d63b9ULL}}, {h.h});
}

// Chunked prefill reads Q, K and V in place from fused row buffers (row
// pitch 3d and wider), and writes O into a strided accumulator.
TEST(KernelPin, AttentionStridedKvCacheViews) {
  Fnv h;
  for (const std::int64_t d : {16, 64}) {
    Rng rng(37 + static_cast<std::uint64_t>(d));
    constexpr std::int64_t prefix = 45;
    constexpr std::int64_t chunk = 21;
    constexpr std::int64_t nk = prefix + chunk;
    const std::int64_t pitch = 3 * d + 5;
    const Tensor cache = rng.gaussian(nk, pitch, 1.0f);
    const ConstMatView k(cache.data(), nk, d, pitch);
    const ConstMatView v(cache.data() + d + 3, nk, d, pitch);
    const ConstMatView q(cache.data() + prefix * pitch + 2 * d + 4, chunk, d,
                         pitch);
    Tensor o_buf = Tensor::zeros(chunk, d + 9);
    const MatView o{o_buf.data() + 9, chunk, d, d + 9};
    Tensor lse(chunk);
    lse.fill(kNegInf);
    KernelStats stats;
    kernels::flash_forward_partial(q, IndexMap::range(prefix, chunk), k, v,
                                   IndexMap::range(0, nk), MaskSpec::causal(),
                                   0.3f, o, lse, &stats);
    h.tensor(o_buf);
    h.tensor(lse);
    h.stats(stats);
  }
  expect_pins({{"kv-cache views", 0x76022f028f17ab2eULL}}, {h.h});
}

// A rank whose query subset is empty touches nothing and counts nothing.
TEST(KernelPin, AttentionEmptyQuerySubset) {
  Rng rng(41);
  constexpr std::int64_t nk = 50;
  constexpr std::int64_t d = 32;
  const Tensor q(0, d);
  const Tensor d_out(0, d);
  const Tensor k = rng.gaussian(nk, d, 1.0f);
  const Tensor v = rng.gaussian(nk, d, 1.0f);
  Tensor o(0, d);
  Tensor lse(0);
  KernelStats stats;
  kernels::flash_forward_partial(q, IndexMap::range(0, 0), k, v,
                                 IndexMap::range(0, nk), MaskSpec::causal(),
                                 0.2f, o, lse, &stats);
  Tensor dq(0, d);
  Tensor dk = rng.gaussian(nk, d, 1.0f);
  Tensor dv = rng.gaussian(nk, d, 1.0f);
  const Tensor dk0 = dk;
  const Tensor dv0 = dv;
  kernels::flash_backward_partial(q, IndexMap::range(0, 0), k, v,
                                  IndexMap::range(0, nk), MaskSpec::causal(),
                                  0.2f, d_out, lse, Tensor(0), dq, dk, dv,
                                  &stats);
  EXPECT_EQ(std::memcmp(dk.data(), dk0.data(), sizeof(float) * nk * d), 0);
  EXPECT_EQ(std::memcmp(dv.data(), dv0.data(), sizeof(float) * nk * d), 0);
  EXPECT_EQ(stats.flops, 0U);
  EXPECT_EQ(stats.tiles_computed, 0U);
  EXPECT_EQ(stats.tiles_skipped, 0U);
}


// ---- fused LM head ----------------------------------------------------------

struct LmShape {
  std::int64_t n, v, d;
};
// d = 300 crosses the 256-deep K block of the logits product; n = 20 is
// shorter than a 32-row strip; v = 37 is narrower than a 64-column tile and
// most v are not multiples of the 16-column panel. The 260-row and
// 300-column shapes, under the 272 x 300 blocks below, make the dW and dh
// products deeper than one K block too.
constexpr LmShape kLmShapes[] = {{70, 90, 300}, {20, 50, 40},  {64, 37, 24},
                                 {96, 130, 64}, {5, 3, 7},     {1, 17, 9},
                                 {260, 70, 12}, {40, 300, 12}, {40, 1, 8}};

struct LmBlocks {
  std::int64_t s, v;
};
constexpr LmBlocks kLmBlocks[] = {{32, 64}, {1, 1},   {7, 9},
                                  {32, 24}, {17, 48}, {272, 300}};

using LmHeadFn = kernels::LmHeadResult (*)(const Tensor&, const Tensor&,
                                           const std::vector<std::int64_t>&,
                                           std::int64_t, std::int64_t);

// Hashes loss bits, dh, dw, FLOPs and scratch bytes of `head` over every
// block size, one hash per shape.
std::vector<std::uint64_t> lm_head_hashes(LmHeadFn head) {
  std::vector<std::uint64_t> out;
  Rng rng(43);
  for (const LmShape& sh : kLmShapes) {
    const Tensor x = rng.gaussian(sh.n, sh.d, 0.7f);
    const Tensor w = rng.gaussian(sh.v, sh.d, 0.7f);
    std::vector<std::int64_t> targets;
    for (std::int64_t i = 0; i < sh.n; ++i) {
      targets.push_back(rng.next_index(sh.v));
    }
    Fnv h;
    for (const LmBlocks& b : kLmBlocks) {
      const kernels::LmHeadResult r = head(x, w, targets, b.s, b.v);
      h.bytes(&r.loss, sizeof r.loss);
      h.tensor(r.dh);
      h.tensor(r.dw);
      h.bytes(&r.flops, sizeof r.flops);
      h.bytes(&r.peak_scratch_bytes, sizeof r.peak_scratch_bytes);
    }
    out.push_back(h.h);
  }
  return out;
}

TEST(KernelPin, FusedLmHeadEveryShapeAndBlock) {
  const std::vector<Pin> want = {
      {"fused 70x90x300", 0xa30dae588fdce2c6ULL},
      {"fused 20x50x40", 0x5a820ca930d27815ULL},
      {"fused 64x37x24", 0xe4003efbdac17280ULL},
      {"fused 96x130x64", 0x398300693b345f58ULL},
      {"fused 5x3x7", 0x8b740995cf3c1360ULL},
      {"fused 1x17x9", 0xd015dc615ccabb2fULL},
      {"fused 260x70x12", 0x113fc2982e02ed59ULL},
      {"fused 40x300x12", 0x9467f81a982baa92ULL},
      {"fused 40x1x8", 0xa3f3b38aecbb154dULL},
  };
  expect_pins(want, lm_head_hashes(&kernels::fused_lm_head_loss));
}

TEST(KernelPin, FusedLmHeadRecomputeEveryShapeAndBlock) {
  const std::vector<Pin> want = {
      {"recompute 70x90x300", 0x2d57e837cb23ae2bULL},
      {"recompute 20x50x40", 0x610d443daa48f3ddULL},
      {"recompute 64x37x24", 0xa2416347cd2e252ULL},
      {"recompute 96x130x64", 0x3503f551bb7af5caULL},
      {"recompute 5x3x7", 0x8a6cb9aaa7f84ecULL},
      {"recompute 1x17x9", 0xb774c83031cba6bULL},
      {"recompute 260x70x12", 0x2be923db09e9adfdULL},
      {"recompute 40x300x12", 0xf17599f116944ad3ULL},
      {"recompute 40x1x8", 0xc2418591915d555dULL},
  };
  expect_pins(want, lm_head_hashes(&kernels::tiled_recompute_lm_head_loss));
}

}  // namespace
}  // namespace burst
