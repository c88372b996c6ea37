#include "tensor/tensor.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <sstream>
#include <stdexcept>

namespace burst::tensor {

namespace {

/// From this size up, glibc malloc always maps fresh pages (it is the
/// ceiling of its dynamic mmap threshold on 64-bit), and calloc returns them
/// without clearing: the OS zeroed them, and a page nobody writes is never
/// made resident. Below it calloc clears anyway and bypasses the per-thread
/// cache, which measured about 2x slower than malloc + memset for small
/// tensors.
constexpr std::size_t kFreshPageBytes = std::size_t{32} << 20;

/// malloc kept out of line: GCC otherwise fuses malloc + memset(0) back
/// into the calloc call that kFreshPageBytes exists to avoid.
[[gnu::noinline]] void* malloc_bytes(std::size_t bytes) {
  return std::malloc(bytes);
}

/// `n` floats of storage (null for n == 0), zeroed or left uninitialized.
float* allocate(std::int64_t n, bool zeroed) {
  assert(n >= 0);
  if (n == 0) {
    return nullptr;
  }
  const auto bytes = static_cast<std::size_t>(n) * sizeof(float);
  const bool fresh_pages = zeroed && bytes >= kFreshPageBytes;
  void* p = fresh_pages ? std::calloc(bytes, 1) : malloc_bytes(bytes);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  if (zeroed && !fresh_pages) {
    std::memset(p, 0, bytes);
  }
  return static_cast<float*>(p);
}

void copy_floats(float* dst, const float* src, std::int64_t n) {
  if (n > 0) {
    std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
  }
}

}  // namespace

Tensor::Tensor(std::int64_t n)
    : shape_{n}, data_(allocate(n, true)), numel_(n) {}

Tensor::Tensor(std::int64_t rows, std::int64_t cols)
    : shape_{rows, cols}, data_(allocate(rows * cols, true)),
      numel_(rows * cols) {
  assert(rows >= 0 && cols >= 0);
}

Tensor Tensor::uninitialized(std::vector<std::int64_t> shape) {
  Tensor t;
  t.numel_ = shape.empty() ? 0 : 1;  // rank 0 holds no storage
  for (const std::int64_t d : shape) {
    t.numel_ *= d;
  }
  t.shape_ = std::move(shape);
  t.data_.reset(allocate(t.numel_, false));
  return t;
}

Tensor::Tensor(const Tensor& other) : Tensor(uninitialized(other.shape_)) {
  copy_floats(data(), other.data(), numel_);
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) {
    return *this;
  }
  if (numel_ != other.numel_) {
    *this = uninitialized(other.shape_);
  } else {
    shape_ = other.shape_;
  }
  copy_floats(data(), other.data(), numel_);
  return *this;
}

Tensor Tensor::zeros(std::int64_t n) { return Tensor(n); }

Tensor Tensor::zeros(std::int64_t rows, std::int64_t cols) {
  return Tensor(rows, cols);
}

Tensor Tensor::full(std::int64_t rows, std::int64_t cols, float value) {
  Tensor t = uninitialized({rows, cols});
  t.fill(value);
  return t;
}

MatView Tensor::view() {
  assert(rank() == 2);
  return MatView{data(), shape_[0], shape_[1], shape_[1]};
}

ConstMatView Tensor::view() const {
  assert(rank() == 2);
  return ConstMatView{data(), shape_[0], shape_[1], shape_[1]};
}

MatView Tensor::row_block(std::int64_t row_begin, std::int64_t num_rows) {
  assert(rank() == 2);
  assert(row_begin >= 0 && num_rows >= 0 && row_begin + num_rows <= shape_[0]);
  return MatView{data() + row_begin * shape_[1], num_rows, shape_[1], shape_[1]};
}

ConstMatView Tensor::row_block(std::int64_t row_begin,
                               std::int64_t num_rows) const {
  assert(rank() == 2);
  assert(row_begin >= 0 && num_rows >= 0 && row_begin + num_rows <= shape_[0]);
  return ConstMatView{data() + row_begin * shape_[1], num_rows, shape_[1],
                      shape_[1]};
}

MatView Tensor::col_block(std::int64_t col_begin, std::int64_t num_cols) {
  assert(rank() == 2);
  assert(col_begin >= 0 && num_cols >= 0 && col_begin + num_cols <= shape_[1]);
  return MatView{data() + col_begin, shape_[0], num_cols, shape_[1]};
}

ConstMatView Tensor::col_block(std::int64_t col_begin,
                               std::int64_t num_cols) const {
  assert(rank() == 2);
  assert(col_begin >= 0 && num_cols >= 0 && col_begin + num_cols <= shape_[1]);
  return ConstMatView{data() + col_begin, shape_[0], num_cols, shape_[1]};
}

Tensor Tensor::copy_rows(std::int64_t row_begin, std::int64_t num_rows) const {
  assert(rank() == 2);
  assert(row_begin >= 0 && row_begin + num_rows <= shape_[0]);
  Tensor out = uninitialized({num_rows, shape_[1]});
  copy_floats(out.data(), data() + row_begin * shape_[1], out.numel());
  return out;
}

void Tensor::set_rows(std::int64_t row_begin, const Tensor& src) {
  assert(rank() == 2 && src.rank() == 2);
  assert(src.cols() == cols());
  assert(row_begin >= 0 && row_begin + src.rows() <= rows());
  copy_floats(data() + row_begin * shape_[1], src.data(), src.numel());
}

void Tensor::fill(float value) {
  std::fill(data(), data() + numel_, value);
}

void Tensor::reshape(std::int64_t rows, std::int64_t cols) {
  if (rows * cols != numel()) {
    throw std::invalid_argument("reshape: numel mismatch " + shape_str());
  }
  shape_ = {rows, cols};
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    os << (i ? ", " : "") << shape_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace burst::tensor
