// Bounds-checked byte codec shared by every byte boundary that carries
// tensors: comm frames, training snapshots and serving checkpoints.
// Scalars are host byte order (every supported target is little-endian); a
// tensor is u32 rank (0..2), rank x i64 dims, then numel x f32 data.
//
// ByteReader<Err> validates before it allocates: every count, dim and byte
// length is checked against the bytes that remain, with overflow-safe
// arithmetic, and a failed check throws the caller's typed error `Err`
// (comm::CommError for frames, SnapshotCorruptError for snapshots).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace burst::tensor {

/// Smallest encoding of one tensor (a rank-0 tensor is its u32 rank alone):
/// the per-element floor for a count of tensors.
constexpr std::size_t kMinTensorBytes = sizeof(std::uint32_t);

/// Encoded size of `t` in bytes.
inline std::size_t encoded_bytes(const Tensor& t) {
  return sizeof(std::uint32_t) +
         static_cast<std::size_t>(t.rank()) * sizeof(std::int64_t) +
         static_cast<std::size_t>(t.numel()) * sizeof(float);
}

class ByteWriter {
 public:
  explicit ByteWriter(std::size_t reserve = 0) { buf_.reserve(reserve); }

  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void f32s(const float* v, std::size_t n) { raw(v, n * sizeof(float)); }

  void tensor(const Tensor& t) {
    u32(static_cast<std::uint32_t>(t.rank()));
    for (int d = 0; d < t.rank(); ++d) {
      i64(t.size(d));
    }
    f32s(t.data(), static_cast<std::size_t>(t.numel()));
  }

  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  // Defined out of line (codec.cpp): inlined into a caller whose field
  // sizes are constants, GCC 12 at -O3 reports false -Wstringop-overflow /
  // -Warray-bounds errors on the vector growth, and the tree builds with
  // -Werror.
  void raw(const void* p, std::size_t n);

  std::vector<std::uint8_t> buf_;
};

template <typename Err>
class ByteReader {
 public:
  /// `what` names the decoded format; it prefixes every error message.
  ByteReader(const std::uint8_t* data, std::size_t size, const char* what)
      : data_(data), size_(size), what_(what) {}

  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  double f64() { return get<double>(); }

  /// Reads an element count stored as `N` and rejects it unless that many
  /// elements of at least `min_bytes` each fit in the remaining bytes, so
  /// the caller may size a container by it.
  template <typename N = std::uint64_t>
  std::size_t count(std::size_t min_bytes) {
    const std::uint64_t n = get<N>();
    if (n > remaining() / min_bytes) {
      fail("count " + std::to_string(n) + " exceeds the " +
           std::to_string(remaining()) + " remaining bytes");
    }
    return static_cast<std::size_t>(n);
  }

  void f32s(float* out, std::size_t n) {
    if (n > remaining() / sizeof(float)) {
      fail("truncated f32 data");
    }
    if (n != 0) {
      std::memcpy(out, data_ + pos_, n * sizeof(float));
    }
    pos_ += n * sizeof(float);
  }

  Tensor tensor() {
    const std::uint32_t rank = u32();
    if (rank > 2) {
      fail("unsupported tensor rank " + std::to_string(rank));
    }
    std::int64_t dims[2] = {0, 0};
    for (std::uint32_t d = 0; d < rank; ++d) {
      dims[d] = i64();
      if (dims[d] < 0) {
        fail("negative dimension");
      }
    }
    if (rank == 0) {
      return Tensor();
    }
    // numel <= cap without forming the (possibly overflowing) product.
    const auto cap = static_cast<std::uint64_t>(remaining() / sizeof(float));
    const auto rows = static_cast<std::uint64_t>(dims[0]);
    const auto cols = static_cast<std::uint64_t>(dims[1]);
    const bool fits =
        rank == 1 ? rows <= cap : (rows == 0 || cols <= cap / rows);
    if (!fits) {
      fail("tensor data truncated");
    }
    Tensor t = rank == 1 ? Tensor(dims[0]) : Tensor(dims[0], dims[1]);
    f32s(t.data(), static_cast<std::size_t>(t.numel()));
    return t;
  }

  /// Rejects bytes left over after the last field.
  void finish() const {
    if (remaining() != 0) {
      fail("trailing bytes");
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw Err(std::string(what_) + ": " + why);
  }

 private:
  std::size_t remaining() const { return size_ - pos_; }

  template <typename T>
  T get() {
    if (sizeof(T) > remaining()) {
      fail("truncated");
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* what_;
};

}  // namespace burst::tensor
