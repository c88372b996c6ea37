// Dense row-major float32 tensor used by every layer of the reproduction.
//
// The scope is deliberately narrow: training-math in this codebase is matrix
// shaped (2-D) with the occasional vector (1-D), so the tensor supports rank
// 1 and 2, owning contiguous storage, plus cheap non-owning views (MatView)
// for blocked kernels. No broadcasting machinery beyond what the attention
// math needs; explicit ops live in tensor/ops.hpp.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace burst::tensor {

/// Non-owning view of a row-major float matrix block. `stride` is the row
/// pitch of the underlying allocation (>= cols).
struct MatView {
  float* data = nullptr;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t stride = 0;

  float& operator()(std::int64_t r, std::int64_t c) const {
    assert(r >= 0 && r < rows && c >= 0 && c < cols);
    return data[r * stride + c];
  }
};

/// Read-only counterpart of MatView.
struct ConstMatView {
  const float* data = nullptr;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t stride = 0;

  ConstMatView() = default;
  ConstMatView(const float* d, std::int64_t r, std::int64_t c, std::int64_t s)
      : data(d), rows(r), cols(c), stride(s) {}
  // NOLINTNEXTLINE(google-explicit-constructor): views convert implicitly.
  ConstMatView(const MatView& v)
      : data(v.data), rows(v.rows), cols(v.cols), stride(v.stride) {}

  const float& operator()(std::int64_t r, std::int64_t c) const {
    assert(r >= 0 && r < rows && c >= 0 && c < cols);
    return data[r * stride + c];
  }
};

/// Owning dense float32 tensor, rank 1 or 2, row-major, contiguous.
///
/// Storage is one malloc'd block. A zero-filled tensor of 32 MiB or more
/// takes fresh, OS-zeroed pages from calloc, so it costs no page touches
/// until it is written; smaller ones are cleared with memset, which is
/// faster there. Copies allocate without zeroing and memcpy. A moved-from
/// tensor is empty.
class Tensor {
 public:
  /// Empty tensor (rank 0, no storage). Useful as "no payload" marker.
  Tensor() = default;

  /// Zero-filled vector of length `n`.
  explicit Tensor(std::int64_t n);

  /// Zero-filled matrix of `rows x cols`.
  Tensor(std::int64_t rows, std::int64_t cols);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept
      : shape_(std::move(other.shape_)),
        data_(std::move(other.data_)),
        numel_(std::exchange(other.numel_, 0)) {
    other.shape_.clear();
  }
  Tensor& operator=(Tensor&& other) noexcept {
    shape_ = std::move(other.shape_);
    other.shape_.clear();
    data_ = std::move(other.data_);
    numel_ = std::exchange(other.numel_, 0);
    return *this;
  }

  static Tensor zeros(std::int64_t n);
  static Tensor zeros(std::int64_t rows, std::int64_t cols);
  static Tensor full(std::int64_t rows, std::int64_t cols, float value);

  bool empty() const { return numel_ == 0; }
  int rank() const { return static_cast<int>(shape_.size()); }
  std::int64_t numel() const { return numel_; }
  std::int64_t size(int dim) const {
    assert(dim >= 0 && dim < rank());
    return shape_[static_cast<std::size_t>(dim)];
  }
  std::int64_t rows() const { return rank() == 2 ? shape_[0] : numel(); }
  std::int64_t cols() const { return rank() == 2 ? shape_[1] : 1; }
  const std::vector<std::int64_t>& shape() const { return shape_; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  /// Element access. 1-D.
  float& operator[](std::int64_t i) {
    assert(rank() == 1 && i >= 0 && i < numel());
    return data_.get()[i];
  }
  float operator[](std::int64_t i) const {
    assert(rank() == 1 && i >= 0 && i < numel());
    return data_.get()[i];
  }

  /// Element access. 2-D.
  float& operator()(std::int64_t r, std::int64_t c) {
    assert(rank() == 2);
    assert(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_.get()[r * shape_[1] + c];
  }
  float operator()(std::int64_t r, std::int64_t c) const {
    assert(rank() == 2);
    assert(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_.get()[r * shape_[1] + c];
  }

  /// Whole-tensor views (rank 2 required for view(); vectors use as_col()).
  MatView view();
  ConstMatView view() const;

  /// View of rows [row_begin, row_begin+num_rows).
  MatView row_block(std::int64_t row_begin, std::int64_t num_rows);
  ConstMatView row_block(std::int64_t row_begin, std::int64_t num_rows) const;

  /// View of columns [col_begin, col_begin+num_cols) across all rows.
  MatView col_block(std::int64_t col_begin, std::int64_t num_cols);
  ConstMatView col_block(std::int64_t col_begin, std::int64_t num_cols) const;

  /// Deep copy of rows [row_begin, row_begin+num_rows).
  Tensor copy_rows(std::int64_t row_begin, std::int64_t num_rows) const;

  /// Writes `src` into rows starting at `row_begin`.
  void set_rows(std::int64_t row_begin, const Tensor& src);

  void fill(float value);

  /// Reinterprets a rank-1 tensor of length r*c as an r x c matrix (or
  /// rank-2 as another rank-2 of same numel). In-place metadata change.
  void reshape(std::int64_t rows, std::int64_t cols);

  std::string shape_str() const;

  /// Allocates `shape`'s storage without initializing it, for callers that
  /// overwrite every element.
  static Tensor uninitialized(std::vector<std::int64_t> shape);

 private:
  struct FreeStorage {
    void operator()(float* p) const noexcept { std::free(p); }
  };

  std::vector<std::int64_t> shape_;
  std::unique_ptr<float[], FreeStorage> data_;
  std::int64_t numel_ = 0;
};

}  // namespace burst::tensor
