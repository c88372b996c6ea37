// Adam optimizer with optional host "offload" semantics (ZeRO-Offload [32]).
//
// The optimizer holds fp32 master weights and the two Adam moments — the
// 12 bytes/parameter that dominate small-world-size memory (Table 5's
// motivation for offloading). In offload mode the state lives in a host
// arena that is *not* charged to the device MemoryTracker, mirroring how
// ZeRO-Offload moves it to CPU DRAM; on-device mode charges it, so the
// functional simulator reproduces the optimizer-memory trade-off.
#pragma once

#include <cstdint>
#include <vector>

#include "model/transformer.hpp"
#include "sim/memory.hpp"

namespace burst::model {

struct AdamConfig {
  float lr = 1e-3f;
  /// Keep state off-device (not charged to the MemoryTracker).
  bool offload = false;
};

/// Complete serializable optimizer state: the step counter and both moment
/// vectors in for_each_param order (model/transformer.hpp). Snapshot/restore
/// support for fault-tolerant training (src/resilience/snapshot.hpp) —
/// restoring makes subsequent steps bitwise identical to an uninterrupted
/// run.
struct AdamState {
  int t = 0;
  std::vector<float> m;
  std::vector<float> v;
};

class AdamOptimizer {
 public:
  /// Sizes the moment buffers from the actual weight tensors. `mem` may be
  /// null (pure-host training); with a tracker and !cfg.offload, state bytes
  /// (12 per parameter, fp32 moments + master) are charged for the
  /// optimizer's lifetime.
  AdamOptimizer(const ModelWeights& weights, const AdamConfig& cfg,
                sim::MemoryTracker* mem = nullptr);
  ~AdamOptimizer();

  AdamOptimizer(const AdamOptimizer&) = delete;
  AdamOptimizer& operator=(const AdamOptimizer&) = delete;

  /// One Adam step over every parameter tensor. Each element's update is
  /// one expression with one writer; the parameters are split into
  /// tensor::kElementwiseChunk-element pieces over the global pool, so the
  /// result is bitwise the same at every pool size.
  void step(ModelWeights& w, const ModelGrads& g);

  /// Copies out the full optimizer state (for durable snapshots).
  AdamState export_state() const;

  /// Restores a previously exported state. The moment-vector sizes must
  /// match this optimizer's parameter count (throws std::invalid_argument
  /// otherwise — a snapshot from a different model shape).
  void restore_state(const AdamState& s);

  std::int64_t num_params() const { return num_params_; }
  int steps_taken() const { return t_; }

 private:
  AdamConfig cfg_;
  std::int64_t num_params_ = 0;
  std::vector<float> m_;
  std::vector<float> v_;
  int t_ = 0;
  sim::MemoryTracker* mem_ = nullptr;
  std::uint64_t charged_ = 0;
};

}  // namespace burst::model
