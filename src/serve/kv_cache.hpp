// Paged KV-cache block pool for the serving engine.
//
// The functional K/V rows live in per-request model::SequenceKvCache
// objects; this pool is the *simulated device's* view of them: a fixed
// budget of fixed-size blocks (vLLM-style paged allocation, coarsened to
// whole blocks per request — enough to reproduce the scheduling behaviour
// that matters: admission control under a memory budget and block reuse
// after eviction). Every acquire/release is charged to the device
// MemoryTracker, so `peak()` reports peak KV bytes alongside activations,
// and a capacity-limited tracker turns over-admission into DeviceOomError
// exactly like the training experiments.
#pragma once

#include <cstdint>
#include <string>

#include "serve/errors.hpp"
#include "sim/memory.hpp"

namespace burst::serve {

class KvBlockPool {
 public:
  KvBlockPool(sim::MemoryTracker& mem, std::uint64_t bytes_per_block,
              std::int64_t max_blocks)
      : mem_(mem), bytes_per_block_(bytes_per_block), max_blocks_(max_blocks) {}

  std::int64_t max_blocks() const { return max_blocks_; }
  std::int64_t used_blocks() const { return used_blocks_; }
  std::int64_t free_blocks() const { return max_blocks_ - used_blocks_; }
  std::uint64_t bytes_per_block() const { return bytes_per_block_; }

  /// Takes `blocks` from the pool, charging the device tracker. Returns
  /// false (no charge) when the pool budget would be exceeded — the
  /// scheduler then defers the work instead of failing.
  bool try_acquire(std::int64_t blocks, const std::string& tag) {
    if (blocks < 0 || used_blocks_ + blocks > max_blocks_) {
      return false;
    }
    mem_.alloc(static_cast<std::uint64_t>(blocks) * bytes_per_block_, tag);
    used_blocks_ += blocks;
    return true;
  }

  /// Returns blocks on request completion (eviction).
  void release(std::int64_t blocks) {
    if (blocks < 0 || blocks > used_blocks_) {
      throw SchedulerInvariantError("KvBlockPool release exceeds used blocks");
    }
    mem_.free(static_cast<std::uint64_t>(blocks) * bytes_per_block_);
    used_blocks_ -= blocks;
  }

 private:
  sim::MemoryTracker& mem_;
  std::uint64_t bytes_per_block_;
  std::int64_t max_blocks_;
  std::int64_t used_blocks_ = 0;
};

}  // namespace burst::serve
