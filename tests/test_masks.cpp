#include "kernels/mask.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "kernels/index_map.hpp"
#include "tensor/rng.hpp"

namespace burst::kernels {
namespace {

TEST(IndexMap, RangeMapsContiguously) {
  IndexMap m = IndexMap::range(10, 5);
  EXPECT_EQ(m.size(), 5);
  EXPECT_EQ(m.global(0), 10);
  EXPECT_EQ(m.global(4), 14);
  EXPECT_TRUE(m.is_contiguous());
  EXPECT_EQ(m.offset(), 10);
}

TEST(IndexMap, StridedMapsWithStride) {
  IndexMap m = IndexMap::strided(3, 4, 4);
  EXPECT_EQ(m.global(0), 3);
  EXPECT_EQ(m.global(1), 7);
  EXPECT_EQ(m.global(3), 15);
  EXPECT_FALSE(m.is_contiguous());
}

TEST(IndexMap, StrideOneIsContiguous) {
  IndexMap m = IndexMap::strided(5, 1, 3);
  EXPECT_TRUE(m.is_contiguous());
  EXPECT_EQ(m.offset(), 5);
}

TEST(IndexMap, SegmentsConcatenate) {
  IndexMap m = IndexMap::segments({{0, 2}, {10, 3}});
  EXPECT_EQ(m.size(), 5);
  EXPECT_EQ(m.global(0), 0);
  EXPECT_EQ(m.global(1), 1);
  EXPECT_EQ(m.global(2), 10);
  EXPECT_EQ(m.global(4), 12);
  EXPECT_FALSE(m.is_contiguous());
}

TEST(IndexMap, RunOffsetFindsContiguousRuns) {
  const IndexMap range = IndexMap::range(10, 8);
  EXPECT_EQ(range.run_offset(2, 8), 12);
  const IndexMap strided = IndexMap::strided(3, 4, 4);
  EXPECT_EQ(strided.run_offset(2, 3), 11);  // a single row is a run
  EXPECT_FALSE(strided.run_offset(1, 3).has_value());
  const IndexMap zigzag = IndexMap::segments({{0, 4}, {20, 4}});
  EXPECT_EQ(zigzag.run_offset(1, 4), 1);
  EXPECT_EQ(zigzag.run_offset(4, 8), 20);
  EXPECT_EQ(zigzag.run_offset(5, 7), 21);
  EXPECT_FALSE(zigzag.run_offset(3, 5).has_value());  // straddles
}

TEST(IndexMap, GlobalBoundsCoverEverySegment) {
  const IndexMap strided = IndexMap::strided(3, 4, 4);
  EXPECT_EQ(strided.global_bounds(1, 4), std::make_pair(std::int64_t{7},
                                                        std::int64_t{15}));
  // Segments in descending global order: bounds are not the endpoints.
  const IndexMap back_first = IndexMap::segments({{20, 4}, {0, 4}});
  EXPECT_EQ(back_first.global_bounds(2, 6),
            std::make_pair(std::int64_t{0}, std::int64_t{23}));
  EXPECT_EQ(back_first.global_bounds(4, 5),
            std::make_pair(std::int64_t{0}, std::int64_t{0}));
}

TEST(Mask, FullAllowsEverything) {
  MaskSpec m = MaskSpec::full();
  EXPECT_TRUE(m.allowed(0, 100));
  EXPECT_TRUE(m.allowed(100, 0));
}

TEST(Mask, CausalAllowsPastOnly) {
  MaskSpec m = MaskSpec::causal();
  EXPECT_TRUE(m.allowed(5, 5));
  EXPECT_TRUE(m.allowed(5, 0));
  EXPECT_FALSE(m.allowed(5, 6));
}

TEST(Mask, SlidingWindowBand) {
  MaskSpec m = MaskSpec::sliding_window(3);
  EXPECT_TRUE(m.allowed(10, 10));
  EXPECT_TRUE(m.allowed(10, 8));
  EXPECT_FALSE(m.allowed(10, 7));  // q - k == 3 >= window
  EXPECT_FALSE(m.allowed(10, 11));
}

TEST(Mask, DilatedStride) {
  MaskSpec m = MaskSpec::dilated(3);
  EXPECT_TRUE(m.allowed(9, 9));
  EXPECT_TRUE(m.allowed(9, 6));
  EXPECT_TRUE(m.allowed(9, 0));
  EXPECT_FALSE(m.allowed(9, 8));
  EXPECT_FALSE(m.allowed(9, 10));
}

TEST(Mask, BlockSparseUsesBlockMatrix) {
  tensor::Tensor bm = tensor::Tensor::zeros(2, 2);
  bm(0, 0) = 1.0f;
  bm(1, 1) = 1.0f;
  MaskSpec m = MaskSpec::block_sparse(std::move(bm), 4);
  EXPECT_TRUE(m.allowed(0, 3));    // both in block 0
  EXPECT_FALSE(m.allowed(0, 4));   // block 0 -> block 1 disabled
  EXPECT_TRUE(m.allowed(5, 7));    // both in block 1
  EXPECT_FALSE(m.allowed(6, 1));
}

TEST(Mask, BlockSlidingWindowShape) {
  MaskSpec m = MaskSpec::block_sliding_window(4, 2, 8);
  // Block 2 attends blocks 1 and 2 only.
  EXPECT_TRUE(m.allowed(16, 8));    // block 2 -> block 1
  EXPECT_TRUE(m.allowed(16, 23));   // within block 2
  EXPECT_FALSE(m.allowed(16, 0));   // block 0 out of window
  EXPECT_FALSE(m.allowed(16, 24));  // future block
}

// Property: count_allowed's closed forms agree with a brute-force scan for
// every mask kind over random rectangles.
class MaskCount : public ::testing::TestWithParam<int> {};

TEST_P(MaskCount, ClosedFormMatchesBruteForce) {
  tensor::Rng rng(static_cast<std::uint64_t>(GetParam()));
  tensor::Tensor bm(3, 3);
  for (std::int64_t i = 0; i < 9; ++i) {
    bm.data()[i] = rng.next_uniform() < 0.5 ? 0.0f : 1.0f;
  }
  const std::vector<MaskSpec> masks = {
      MaskSpec::full(), MaskSpec::causal(), MaskSpec::sliding_window(5),
      MaskSpec::dilated(3), MaskSpec::block_sparse(bm, 8)};
  for (const auto& mask : masks) {
    for (int trial = 0; trial < 10; ++trial) {
      const std::int64_t q0 = rng.next_index(20);
      const std::int64_t q1 = q0 + rng.next_index(5);
      const std::int64_t k0 = rng.next_index(20);
      const std::int64_t k1 = k0 + rng.next_index(5);
      std::uint64_t brute = 0;
      for (std::int64_t q = q0; q < q1; ++q) {
        for (std::int64_t k = k0; k < k1; ++k) {
          brute += mask.allowed(q, k) ? 1 : 0;
        }
      }
      EXPECT_EQ(mask.count_allowed(q0, q1, k0, k1), brute)
          << "kind=" << static_cast<int>(mask.kind()) << " rect q[" << q0
          << "," << q1 << ") k[" << k0 << "," << k1 << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskCount, ::testing::Values(1, 2, 3, 4, 5));

// Property: classify must be consistent with allowed() — kAll means every
// pair allowed, kNone means no pair allowed.
class MaskClassify : public ::testing::TestWithParam<int> {};

TEST_P(MaskClassify, ConsistentWithAllowed) {
  tensor::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const std::vector<MaskSpec> masks = {
      MaskSpec::full(), MaskSpec::causal(), MaskSpec::sliding_window(7),
      MaskSpec::dilated(2),
      MaskSpec::block_sliding_window(4, 2, 8)};
  for (const auto& mask : masks) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::int64_t q0 = rng.next_index(30);
      const std::int64_t q1 = q0 + 1 + rng.next_index(6);
      const std::int64_t k0 = rng.next_index(30);
      const std::int64_t k1 = k0 + 1 + rng.next_index(6);
      const auto cls = mask.classify(q0, q1, k0, k1);
      const std::uint64_t cnt = mask.count_allowed(q0, q1, k0, k1);
      const std::uint64_t area =
          static_cast<std::uint64_t>(q1 - q0) * static_cast<std::uint64_t>(k1 - k0);
      if (cls == MaskSpec::TileClass::kAll) {
        EXPECT_EQ(cnt, area);
      } else if (cls == MaskSpec::TileClass::kNone) {
        EXPECT_EQ(cnt, 0u);
      }
      // kPartial may legitimately cover all/none for the conservative closed
      // forms, so no assertion in that branch.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskClassify, ::testing::Values(1, 2, 3));

// Property: the kernels' tile classification equals an exhaustive per-pair
// scan for every map kind (contiguous, strided, zigzag segments with tiles
// straddling the segment boundary, segments out of global order), every
// mask kind and every tile position. KernelStats, and through them the
// simulated compute charges, depend on this being exact.
MaskSpec::TileClass brute_classify(const MaskSpec& mask, const IndexMap& qmap,
                                   std::int64_t q0, std::int64_t q1,
                                   const IndexMap& kmap, std::int64_t k0,
                                   std::int64_t k1) {
  bool any = false;
  bool all = true;
  for (std::int64_t i = q0; i < q1; ++i) {
    for (std::int64_t j = k0; j < k1; ++j) {
      const bool a = mask.allowed(qmap.global(i), kmap.global(j));
      any = any || a;
      all = all && a;
    }
  }
  if (!any) {
    return MaskSpec::TileClass::kNone;
  }
  return all ? MaskSpec::TileClass::kAll : MaskSpec::TileClass::kPartial;
}

TEST(ClassifyTile, MatchesBruteForceForEveryMapMaskAndTile) {
  // Four 48-row maps over a 96-token sequence.
  const std::vector<IndexMap> maps = {
      IndexMap::range(24, 48),
      IndexMap::strided(1, 2, 48),                   // striped, G = 2
      IndexMap::segments({{0, 24}, {72, 24}}),       // zigzag, G = 2
      IndexMap::segments({{60, 20}, {4, 28}}),       // back segment first
  };
  tensor::Rng rng(7);
  tensor::Tensor bm(10, 10);  // covers positions [0, 80): the rest is masked
  for (std::int64_t i = 0; i < bm.numel(); ++i) {
    bm.data()[i] = rng.next_uniform() < 0.5 ? 0.0f : 1.0f;
  }
  const std::vector<MaskSpec> masks = {
      MaskSpec::full(),
      MaskSpec::causal(),
      MaskSpec::sliding_window(10),
      MaskSpec::dilated(3),
      MaskSpec::block_sparse(bm, 8),
      MaskSpec::document_from_lengths({30, 17, 49}),
  };
  const std::int64_t tile = 8;
  for (const MaskSpec& mask : masks) {
    for (const IndexMap& qmap : maps) {
      for (const IndexMap& kmap : maps) {
        for (std::int64_t q0 = 0; q0 < qmap.size(); ++q0) {
          const std::int64_t q1 = std::min(qmap.size(), q0 + tile);
          for (std::int64_t k0 = 0; k0 < kmap.size(); ++k0) {
            const std::int64_t k1 = std::min(kmap.size(), k0 + tile);
            ASSERT_EQ(classify_tile(mask, qmap, q0, q1, kmap, k0, k1),
                      brute_classify(mask, qmap, q0, q1, kmap, k0, k1))
                << "kind=" << static_cast<int>(mask.kind()) << " q[" << q0
                << "," << q1 << ") k[" << k0 << "," << k1 << ")";
          }
        }
      }
    }
  }
}

TEST(Mask, MaskRowMatchesAllowed) {
  tensor::Rng rng(11);
  tensor::Tensor bm(6, 6);
  for (std::int64_t i = 0; i < bm.numel(); ++i) {
    bm.data()[i] = rng.next_uniform() < 0.5 ? 0.0f : 1.0f;
  }
  const std::vector<MaskSpec> masks = {
      MaskSpec::full(),       MaskSpec::causal(),
      MaskSpec::sliding_window(5), MaskSpec::dilated(3),
      MaskSpec::block_sparse(bm, 8),
      MaskSpec::document_from_lengths({20, 28})};
  std::vector<std::int64_t> keys(48);
  for (std::int64_t j = 0; j < 48; ++j) {
    keys[static_cast<std::size_t>(j)] = (j * 29) % 48;  // scrambled order
  }
  for (const MaskSpec& mask : masks) {
    for (std::int64_t q = 0; q < 48; ++q) {
      std::vector<float> row(48, 1.5f);
      mask.mask_row(q, keys.data(), 48, row.data());
      for (std::int64_t j = 0; j < 48; ++j) {
        const bool a = mask.allowed(q, keys[static_cast<std::size_t>(j)]);
        EXPECT_EQ(row[static_cast<std::size_t>(j)],
                  a ? 1.5f : -std::numeric_limits<float>::infinity())
            << "kind=" << static_cast<int>(mask.kind()) << " q=" << q;
      }
    }
  }
}

TEST(Mask, CausalTotalWorkIsHalfSquare) {
  MaskSpec m = MaskSpec::causal();
  const std::int64_t n = 64;
  EXPECT_EQ(m.count_allowed(0, n, 0, n),
            static_cast<std::uint64_t>(n * (n + 1) / 2));
}

TEST(Mask, SlidingWindowTotalWork) {
  MaskSpec m = MaskSpec::sliding_window(4);
  // Row q attends min(q+1, 4) keys.
  const std::int64_t n = 10;
  std::uint64_t expected = 0;
  for (std::int64_t q = 0; q < n; ++q) {
    expected += static_cast<std::uint64_t>(std::min<std::int64_t>(q + 1, 4));
  }
  EXPECT_EQ(m.count_allowed(0, n, 0, n), expected);
}

}  // namespace
}  // namespace burst::kernels
