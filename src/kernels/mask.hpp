// Attention mask programs (Section 3.4 of the paper).
//
// A MaskSpec answers, for a pair of *global* token positions (q, k), whether
// the query may attend to the key. Supported patterns:
//   Full           — dense attention (no masking)
//   Causal         — k <= q (standard LLM training)
//   SlidingWindow  — causal within a trailing window: 0 <= q - k < w
//   Dilated        — causal, attending every `stride`-th predecessor
//   BlockSparse    — sequence cut into fixed-size blocks; a block-level 0/1
//                    matrix M_blk decides block-to-block visibility
//   Document       — packed-sequence training (extension): each token has a
//                    document id; attention is causal *within* a document
//                    and blocked across documents (block-diagonal x causal)
// MaskSpecs are cheap to copy (block masks / doc tables are shared) so
// kernels take them by value.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "kernels/index_map.hpp"
#include "tensor/tensor.hpp"

namespace burst::kernels {

enum class MaskKind {
  kFull,
  kCausal,
  kSlidingWindow,
  kDilated,
  kBlockSparse,
  kDocument,
};

class MaskSpec {
 public:
  static MaskSpec full() { return MaskSpec(MaskKind::kFull); }

  static MaskSpec causal() { return MaskSpec(MaskKind::kCausal); }

  /// Causal attention restricted to the last `window` positions
  /// (window >= 1; window == 1 attends only to self).
  static MaskSpec sliding_window(std::int64_t window) {
    MaskSpec m(MaskKind::kSlidingWindow);
    m.window_ = window;
    return m;
  }

  /// Causal attention to predecessors at multiples of `stride`.
  static MaskSpec dilated(std::int64_t stride) {
    MaskSpec m(MaskKind::kDilated);
    m.stride_ = stride;
    return m;
  }

  /// Block-wise sparse: token q in block q/bs may attend token k in block
  /// k/bs iff block_mask(q/bs, k/bs) != 0.
  static MaskSpec block_sparse(tensor::Tensor block_mask,
                               std::int64_t block_size) {
    MaskSpec m(MaskKind::kBlockSparse);
    m.block_mask_ =
        std::make_shared<const tensor::Tensor>(std::move(block_mask));
    m.block_size_ = block_size;
    return m;
  }

  /// Block-sparse equivalent of sliding-window attention over `num_blocks`
  /// blocks: block i attends to blocks [i - window_blocks + 1, i]. This is
  /// the SWA configuration of Table 3.
  static MaskSpec block_sliding_window(std::int64_t num_blocks,
                                       std::int64_t window_blocks,
                                       std::int64_t block_size);

  /// Document packing: token q attends to token k iff they belong to the
  /// same document and k <= q. `doc_of[i]` is token i's document id.
  static MaskSpec document(std::vector<std::int64_t> doc_of);

  /// Convenience: consecutive documents with the given lengths.
  static MaskSpec document_from_lengths(
      const std::vector<std::int64_t>& lengths);

  MaskKind kind() const { return kind_; }
  std::int64_t window() const { return window_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t block_size() const { return block_size_; }
  const tensor::Tensor& block_mask() const { return *block_mask_; }

  bool allowed(std::int64_t q, std::int64_t k) const {
    switch (kind_) {
      case MaskKind::kFull:
        return true;
      case MaskKind::kCausal:
        return k <= q;
      case MaskKind::kSlidingWindow:
        return k <= q && q - k < window_;
      case MaskKind::kDilated:
        return k <= q && (q - k) % stride_ == 0;
      case MaskKind::kBlockSparse: {
        // Positions past the block grid are outside the mask's domain and
        // therefore not allowed (classify() may probe arbitrary tiles).
        const std::int64_t qb = q / block_size_;
        const std::int64_t kb = k / block_size_;
        if (qb >= block_mask_->rows() || kb >= block_mask_->cols()) {
          return false;
        }
        return (*block_mask_)(qb, kb) != 0.0f;
      }
      case MaskKind::kDocument: {
        const auto n = static_cast<std::int64_t>(doc_of_->size());
        if (q >= n || k >= n) {
          return false;  // outside the packed documents
        }
        return k <= q && (*doc_of_)[static_cast<std::size_t>(q)] ==
                             (*doc_of_)[static_cast<std::size_t>(k)];
      }
    }
    return false;
  }

  /// Number of allowed (q, k) pairs with q in [q0, q1) and k in [k0, k1),
  /// both in global coordinates. Closed form for Full/Causal/SlidingWindow;
  /// exact loop otherwise. This drives the workload-balance metrics and the
  /// per-round compute charges in the simulated schedules.
  std::uint64_t count_allowed(std::int64_t q0, std::int64_t q1,
                              std::int64_t k0, std::int64_t k1) const;

  /// Tile classification used by the kernels to skip fully-masked tiles and
  /// run unmasked fast paths. Exact: kAll iff every pair of the (non-empty)
  /// rectangle [q0,q1) x [k0,k1) is allowed, kNone iff none is.
  enum class TileClass { kNone, kPartial, kAll };
  TileClass classify(std::int64_t q0, std::int64_t q1, std::int64_t k0,
                     std::int64_t k1) const;

  /// Sets row[j] = -inf for every key k[j] (global) that query `q` may not
  /// attend; allowed entries are left untouched.
  void mask_row(std::int64_t q, const std::int64_t* k, std::int64_t n,
                float* row) const;

 private:
  explicit MaskSpec(MaskKind kind) : kind_(kind) {}

  MaskKind kind_;
  std::int64_t window_ = 0;
  std::int64_t stride_ = 1;
  std::int64_t block_size_ = 1;
  std::shared_ptr<const tensor::Tensor> block_mask_;
  std::shared_ptr<const std::vector<std::int64_t>> doc_of_;
};

/// Exact classification of the tile of local query rows [q0, q1) against
/// local key rows [k0, k1), positions translated through the maps. Full and
/// causal masks classify the tiles' global bounding boxes, which is exact
/// for any map (causal: all pairs allowed iff max k <= min q, none iff
/// min k > max q); other masks use MaskSpec::classify when both tiles are
/// contiguous runs and a per-pair scan otherwise.
MaskSpec::TileClass classify_tile(const MaskSpec& mask, const IndexMap& qmap,
                                  std::int64_t q0, std::int64_t q1,
                                  const IndexMap& kmap, std::int64_t k0,
                                  std::int64_t k1);

}  // namespace burst::kernels
