#include "kernels/mask.hpp"

#include <algorithm>
#include <limits>

namespace burst::kernels {

MaskSpec MaskSpec::block_sliding_window(std::int64_t num_blocks,
                                        std::int64_t window_blocks,
                                        std::int64_t block_size) {
  tensor::Tensor m = tensor::Tensor::zeros(num_blocks, num_blocks);
  for (std::int64_t i = 0; i < num_blocks; ++i) {
    const std::int64_t lo = std::max<std::int64_t>(0, i - window_blocks + 1);
    for (std::int64_t j = lo; j <= i; ++j) {
      m(i, j) = 1.0f;
    }
  }
  return block_sparse(std::move(m), block_size);
}

MaskSpec MaskSpec::document(std::vector<std::int64_t> doc_of) {
  MaskSpec m(MaskKind::kDocument);
  m.doc_of_ =
      std::make_shared<const std::vector<std::int64_t>>(std::move(doc_of));
  return m;
}

MaskSpec MaskSpec::document_from_lengths(
    const std::vector<std::int64_t>& lengths) {
  std::vector<std::int64_t> doc_of;
  for (std::size_t d = 0; d < lengths.size(); ++d) {
    for (std::int64_t i = 0; i < lengths[d]; ++i) {
      doc_of.push_back(static_cast<std::int64_t>(d));
    }
  }
  return document(std::move(doc_of));
}

namespace {

// Allowed pairs for a causal band mask `0 <= q - k < w` intersected with the
// rectangle [q0,q1) x [k0,k1). w = +inf expresses plain causal.
std::uint64_t count_band(std::int64_t q0, std::int64_t q1, std::int64_t k0,
                         std::int64_t k1, std::int64_t w) {
  std::uint64_t total = 0;
  for (std::int64_t q = q0; q < q1; ++q) {
    // k range: max(k0, q - w + 1) .. min(k1 - 1, q)
    const std::int64_t lo = std::max(k0, w == 0 ? k0 : q - w + 1);
    const std::int64_t hi = std::min(k1 - 1, q);
    if (hi >= lo) {
      total += static_cast<std::uint64_t>(hi - lo + 1);
    }
  }
  return total;
}

}  // namespace

std::uint64_t MaskSpec::count_allowed(std::int64_t q0, std::int64_t q1,
                                      std::int64_t k0, std::int64_t k1) const {
  if (q1 <= q0 || k1 <= k0) {
    return 0;
  }
  const std::uint64_t qn = static_cast<std::uint64_t>(q1 - q0);
  const std::uint64_t kn = static_cast<std::uint64_t>(k1 - k0);
  switch (kind_) {
    case MaskKind::kFull:
      return qn * kn;
    case MaskKind::kCausal:
      // Band with effectively infinite window.
      return count_band(q0, q1, k0, k1, q1 + 1);
    case MaskKind::kSlidingWindow:
      return count_band(q0, q1, k0, k1, window_);
    case MaskKind::kDilated:
    case MaskKind::kBlockSparse:
    case MaskKind::kDocument: {
      std::uint64_t total = 0;
      for (std::int64_t q = q0; q < q1; ++q) {
        for (std::int64_t k = k0; k < k1; ++k) {
          total += allowed(q, k) ? 1 : 0;
        }
      }
      return total;
    }
  }
  return 0;
}

namespace {

// Exact per-pair scan over an nq x nk tile; qpos/kpos map tile indices to
// global positions. Early-outs as soon as the tile is mixed.
template <typename QPos, typename KPos>
MaskSpec::TileClass scan_tile(const MaskSpec& mask, std::int64_t nq,
                              std::int64_t nk, QPos qpos, KPos kpos) {
  bool any = false;
  bool all = true;
  for (std::int64_t i = 0; i < nq; ++i) {
    const std::int64_t q = qpos(i);
    for (std::int64_t j = 0; j < nk; ++j) {
      const bool a = mask.allowed(q, kpos(j));
      any = any || a;
      all = all && a;
      if (any && !all) {
        return MaskSpec::TileClass::kPartial;
      }
    }
  }
  if (!any) {
    return MaskSpec::TileClass::kNone;
  }
  return all ? MaskSpec::TileClass::kAll : MaskSpec::TileClass::kPartial;
}

}  // namespace

MaskSpec::TileClass MaskSpec::classify(std::int64_t q0, std::int64_t q1,
                                       std::int64_t k0,
                                       std::int64_t k1) const {
  switch (kind_) {
    case MaskKind::kFull:
      return TileClass::kAll;
    case MaskKind::kCausal:
      if (k1 - 1 <= q0) {
        return TileClass::kAll;  // entire tile below the diagonal
      }
      if (k0 > q1 - 1) {
        return TileClass::kNone;  // entire tile above the diagonal
      }
      return TileClass::kPartial;
    case MaskKind::kSlidingWindow: {
      if (k0 > q1 - 1 || k1 - 1 < q0 - window_ + 1) {
        return TileClass::kNone;  // beyond diagonal or behind the window
      }
      if (k1 - 1 <= q0 && k0 >= q1 - window_) {
        return TileClass::kAll;  // tile fits inside the band for every row
      }
      return TileClass::kPartial;
    }
    case MaskKind::kBlockSparse: {
      // Every block pair the rectangle touches holds at least one of its
      // pairs, and all pairs inside one block pair agree, so scanning the
      // block pairs is exact. Blocks past the grid are never allowed.
      bool any = false;
      bool all = true;
      for (std::int64_t qb = q0 / block_size_; qb <= (q1 - 1) / block_size_;
           ++qb) {
        for (std::int64_t kb = k0 / block_size_;
             kb <= (k1 - 1) / block_size_; ++kb) {
          const bool a = qb < block_mask_->rows() &&
                         kb < block_mask_->cols() &&
                         (*block_mask_)(qb, kb) != 0.0f;
          any = any || a;
          all = all && a;
        }
      }
      if (!any) {
        return TileClass::kNone;
      }
      return all ? TileClass::kAll : TileClass::kPartial;
    }
    case MaskKind::kDilated:
    case MaskKind::kDocument:
      return scan_tile(
          *this, q1 - q0, k1 - k0, [q0](std::int64_t i) { return q0 + i; },
          [k0](std::int64_t j) { return k0 + j; });
  }
  return TileClass::kPartial;
}

void MaskSpec::mask_row(std::int64_t q, const std::int64_t* k, std::int64_t n,
                        float* row) const {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  switch (kind_) {
    case MaskKind::kFull:
      return;
    case MaskKind::kCausal:
      for (std::int64_t j = 0; j < n; ++j) {
        row[j] = k[j] <= q ? row[j] : kNegInf;
      }
      return;
    case MaskKind::kSlidingWindow:
      for (std::int64_t j = 0; j < n; ++j) {
        row[j] = k[j] <= q && q - k[j] < window_ ? row[j] : kNegInf;
      }
      return;
    case MaskKind::kDilated:
    case MaskKind::kBlockSparse:
    case MaskKind::kDocument:
      for (std::int64_t j = 0; j < n; ++j) {
        if (!allowed(q, k[j])) {
          row[j] = kNegInf;
        }
      }
      return;
  }
}

MaskSpec::TileClass classify_tile(const MaskSpec& mask, const IndexMap& qmap,
                                  std::int64_t q0, std::int64_t q1,
                                  const IndexMap& kmap, std::int64_t k0,
                                  std::int64_t k1) {
  if (mask.kind() == MaskKind::kFull || mask.kind() == MaskKind::kCausal) {
    const auto [qlo, qhi] = qmap.global_bounds(q0, q1);
    const auto [klo, khi] = kmap.global_bounds(k0, k1);
    return mask.classify(qlo, qhi + 1, klo, khi + 1);
  }
  const auto qoff = qmap.run_offset(q0, q1);
  const auto koff = kmap.run_offset(k0, k1);
  if (qoff && koff) {
    return mask.classify(*qoff, *qoff + (q1 - q0), *koff, *koff + (k1 - k0));
  }
  return scan_tile(
      mask, q1 - q0, k1 - k0,
      [&qmap, q0](std::int64_t i) { return qmap.global(q0 + i); },
      [&kmap, k0](std::int64_t j) { return kmap.global(k0 + j); });
}

}  // namespace burst::kernels
