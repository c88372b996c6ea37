// Serving-engine checkpoints: everything needed to resume a crashed run
// bitwise identically.
//
// An EngineCheckpoint freezes the engine's run state at an iteration
// boundary — per-slot scheduler state (queue position, outcome, admission
// verdict), every generated token with its emission time, and the raw KV
// rows each live request holds — so a recovery supervisor can restart the
// run from the last checkpoint and replay only the iterations after it.
// Replay is exact: the scheduler is a pure function of this state, the
// forward passes are deterministic, and the KV rows are restored byte for
// byte, so the post-recovery token streams match a fault-free run.
//
// Serialization rides on the checked-blob container from
// resilience/snapshot.hpp ([magic][version][size][fnv1a64][payload], .tmp +
// atomic rename), and the payload uses the shared tensor codec
// (tensor/codec.hpp), so serving checkpoints get the same torn-write,
// corruption and hostile-size guarantees as training snapshots.
// ServeSnapshotManager is the same directory store as SnapshotManager
// (resilience::SnapshotStore), instantiated with CheckpointCodec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/snapshot.hpp"
#include "tensor/tensor.hpp"

namespace burst::serve {

struct EngineCheckpoint {
  /// Iterations committed before capture (resume re-enters the loop here).
  std::int64_t iteration = 0;
  /// Virtual clock at capture; resume advances a fresh clock to this point.
  double time_s = 0.0;
  /// Cumulative SLO-preemption tally (not derivable from final slot state).
  std::int64_t preempted = 0;

  struct Slot {
    std::uint32_t state = 0;          // RequestState
    std::uint32_t outcome = 0;        // Outcome
    std::uint32_t reject_reason = 0;  // RejectReason
    bool admission_checked = false;
    std::int64_t prefilled = 0;
    std::int64_t blocks_held = 0;
    double first_token_s = -1.0;
    double finish_s = -1.0;
    std::vector<std::int64_t> generated;
    std::vector<double> token_times;
    /// Committed KV rows, and their contents per (layer * kv_heads + kvh),
    /// each tensor [cache_len, head_dim]. Empty when no blocks are held.
    std::int64_t cache_len = 0;
    std::vector<tensor::Tensor> k;
    std::vector<tensor::Tensor> v;
  };
  std::vector<Slot> slots;
};

/// Checkpoint payload bytes <-> struct. The payload goes inside the checked
/// blob container (or travels in memory for diskless recovery tests).
/// deserialize_checkpoint throws resilience::SnapshotCorruptError on any
/// malformed payload.
std::vector<unsigned char> serialize_checkpoint(const EngineCheckpoint& ck);
EngineCheckpoint deserialize_checkpoint(
    const std::vector<unsigned char>& payload);

/// Serialized size, container header included — what save() writes; the
/// recovery supervisor charges this against a disk bandwidth.
std::uint64_t checkpoint_bytes(const EngineCheckpoint& ck);

/// Payload codec of serving checkpoints, stored as serve-<iteration>.bin.
struct CheckpointCodec {
  using Value = EngineCheckpoint;
  static constexpr const char* kPrefix = "serve-";
  static std::int64_t sequence(const EngineCheckpoint& ck) {
    return ck.iteration;
  }
  static std::vector<unsigned char> encode(const EngineCheckpoint& ck) {
    return serialize_checkpoint(ck);
  }
  static EngineCheckpoint decode(const std::vector<unsigned char>& payload) {
    return deserialize_checkpoint(payload);
  }
};

/// Durable checkpoint store: serve-<iteration>.bin files in one directory,
/// checksummed, atomically renamed, oldest pruned beyond keep_last, and
/// load_latest skipping corrupt files.
using ServeSnapshotManager = resilience::SnapshotStore<CheckpointCodec>;

}  // namespace burst::serve
