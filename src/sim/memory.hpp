// Per-device memory accounting with peak tracking and optional capacity.
//
// The paper's memory results (Figure 13, Table 2) hinge on *peak* allocated
// bytes per GPU, and several baselines fail with out-of-memory at specific
// settings (Megatron-CP beyond 256K, Ulysses on the 14B/120K-vocab model).
// The tracker reproduces those failures as real exceptions when a capacity
// (e.g. 80 GB) is configured, instead of hard-coding "OOM" rows.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/error.hpp"

namespace burst::sim {

/// Thrown when an allocation would exceed the device's configured capacity.
/// burst::Error code: device_oom.
class DeviceOomError : public burst::Error {
 public:
  DeviceOomError(int rank, std::uint64_t requested, std::uint64_t used,
                 std::uint64_t capacity, const std::string& tag)
      : burst::Error(ErrorCode::kDeviceOom,
                     "device " + std::to_string(rank) +
                         " out of memory allocating " +
                         std::to_string(requested) + " bytes for '" + tag +
                         "' (used " + std::to_string(used) + " / cap " +
                         std::to_string(capacity) + ")") {}
};

class MemoryTracker {
 public:
  explicit MemoryTracker(int rank = 0,
                         std::uint64_t capacity_bytes =
                             std::numeric_limits<std::uint64_t>::max())
      : rank_(rank), capacity_(capacity_bytes) {}

  void alloc(std::uint64_t bytes, const std::string& tag = "") {
    if (used_ + bytes > capacity_) {
      throw DeviceOomError(rank_, bytes, used_, capacity_, tag);
    }
    used_ += bytes;
    peak_ = std::max(peak_, used_);
  }

  void free(std::uint64_t bytes) {
    // Accounting bug guard: freeing more than allocated is a programming
    // error in a checkpoint planner / buffer manager.
    if (bytes > used_) {
      throw burst::InvariantError("MemoryTracker: free exceeds used");
    }
    used_ -= bytes;
  }

  std::uint64_t used() const { return used_; }
  std::uint64_t peak() const { return peak_; }
  std::uint64_t capacity() const { return capacity_; }

 private:
  int rank_ = 0;
  std::uint64_t used_ = 0;
  std::uint64_t peak_ = 0;
  std::uint64_t capacity_;
};

/// RAII allocation: frees on scope exit (Core Guidelines R.1).
class ScopedAlloc {
 public:
  ScopedAlloc(MemoryTracker& mem, std::uint64_t bytes, const std::string& tag)
      : mem_(&mem), bytes_(bytes) {
    mem_->alloc(bytes_, tag);
  }
  ScopedAlloc(const ScopedAlloc&) = delete;
  ScopedAlloc& operator=(const ScopedAlloc&) = delete;
  ScopedAlloc(ScopedAlloc&& other) noexcept
      : mem_(other.mem_), bytes_(other.bytes_) {
    other.mem_ = nullptr;
  }
  ~ScopedAlloc() {
    if (mem_ != nullptr) {
      mem_->free(bytes_);
    }
  }

 private:
  MemoryTracker* mem_;
  std::uint64_t bytes_;
};

}  // namespace burst::sim
