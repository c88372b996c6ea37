// Mapping from a device-local row index to a global token position.
//
// Context parallelism assigns each device a subset of the sequence; *which*
// subset depends on the workload-balance strategy (Section 3.4):
//   - contiguous range        (naive partition),
//   - two ranges              (zigzag balance: one front chunk + one back),
//   - strided positions       (striped balance: token i, i+G, i+2G, ...).
// Attention masks are defined on global positions, so kernels consult an
// IndexMap to decide masking for local tiles regardless of the partitioner.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace burst::kernels {

class IndexMap {
 public:
  /// Contiguous [offset, offset+len).
  static IndexMap range(std::int64_t offset, std::int64_t len) {
    IndexMap m;
    m.kind_ = Kind::kRange;
    m.start_ = offset;
    m.len_ = len;
    return m;
  }

  /// start, start+stride, start+2*stride, ... (len entries).
  static IndexMap strided(std::int64_t start, std::int64_t stride,
                          std::int64_t len) {
    IndexMap m;
    m.kind_ = Kind::kStrided;
    m.start_ = start;
    m.stride_ = stride;
    m.len_ = len;
    return m;
  }

  /// Concatenation of contiguous (offset, len) segments, in local order.
  static IndexMap segments(std::vector<std::pair<std::int64_t, std::int64_t>> segs) {
    IndexMap m;
    m.kind_ = Kind::kSegments;
    m.segs_ = std::move(segs);
    m.len_ = 0;
    for (const auto& [off, len] : m.segs_) {
      (void)off;
      m.len_ += len;
    }
    return m;
  }

  std::int64_t size() const { return len_; }

  std::int64_t global(std::int64_t local) const {
    assert(local >= 0 && local < len_);
    switch (kind_) {
      case Kind::kRange:
        return start_ + local;
      case Kind::kStrided:
        return start_ + local * stride_;
      case Kind::kSegments: {
        for (const auto& [off, len] : segs_) {
          if (local < len) {
            return off + local;
          }
          local -= len;
        }
        assert(false);
        return -1;
      }
    }
    return -1;
  }

  bool is_contiguous() const {
    return kind_ == Kind::kRange ||
           (kind_ == Kind::kStrided && stride_ == 1) ||
           (kind_ == Kind::kSegments && segs_.size() == 1);
  }

  /// For contiguous maps: the global offset of local row 0.
  std::int64_t offset() const {
    assert(is_contiguous());
    return kind_ == Kind::kSegments ? segs_.front().first : start_;
  }

  /// Global position of local row `a` when local rows [a, b) map to one
  /// contiguous global run (a + i -> global(a) + i), otherwise nullopt.
  /// A zigzag tile inside one segment is a run; one straddling the segment
  /// boundary is not. Requires 0 <= a < b <= size().
  std::optional<std::int64_t> run_offset(std::int64_t a, std::int64_t b) const {
    assert(0 <= a && a < b && b <= len_);
    switch (kind_) {
      case Kind::kRange:
        return start_ + a;
      case Kind::kStrided:
        if (stride_ == 1 || b - a == 1) {
          return start_ + a * stride_;
        }
        return std::nullopt;
      case Kind::kSegments:
        for (const auto& [off, len] : segs_) {
          if (a < len) {
            if (b <= len) {
              return off + a;
            }
            return std::nullopt;
          }
          a -= len;
          b -= len;
        }
        break;
    }
    assert(false);
    return std::nullopt;
  }

  /// Smallest and largest global position among local rows [a, b).
  /// Requires 0 <= a < b <= size().
  std::pair<std::int64_t, std::int64_t> global_bounds(std::int64_t a,
                                                      std::int64_t b) const {
    assert(0 <= a && a < b && b <= len_);
    if (kind_ != Kind::kSegments) {
      const std::int64_t first = global(a);
      const std::int64_t last = global(b - 1);
      return {std::min(first, last), std::max(first, last)};
    }
    std::pair<std::int64_t, std::int64_t> bounds{global(a), global(a)};
    std::int64_t seg_begin = 0;  // local index of the segment's first row
    for (const auto& [off, len] : segs_) {
      const std::int64_t s0 = std::max(a, seg_begin);
      const std::int64_t s1 = std::min(b, seg_begin + len);
      if (s0 < s1) {
        bounds.first = std::min(bounds.first, off + (s0 - seg_begin));
        bounds.second = std::max(bounds.second, off + (s1 - 1 - seg_begin));
      }
      seg_begin += len;
    }
    return bounds;
  }

 private:
  enum class Kind { kRange, kStrided, kSegments };

  Kind kind_ = Kind::kRange;
  std::int64_t start_ = 0;
  std::int64_t stride_ = 1;
  std::int64_t len_ = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> segs_;
};

}  // namespace burst::kernels
