// Durable, checksummed snapshots: the checked-blob container, the directory
// store every snapshot family shares, and training snapshots.
//
// A TrainSnapshot captures everything needed to resume training bitwise
// identically after a crash: the model weights, the Adam moments and step
// counter, the data-stream RNG state, and the data cursor. Its payload uses
// the shared tensor codec (tensor/codec.hpp) inside a checked blob: a
// magic/version header and an FNV-1a 64-bit checksum over the payload.
// SnapshotStore<Codec> (SnapshotManager here, ServeSnapshotManager in
// serve/snapshot.hpp) saves to a temporary file and commits with an atomic
// rename, so a crash during save never leaves a half-written file under the
// snapshot name. Loading validates magic, version, size and checksum, then
// decodes with every count and dim checked before allocation; any corrupt,
// truncated or hostile file raises SnapshotCorruptError, and load_latest
// falls back to the newest valid one.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "model/optimizer.hpp"
#include "model/transformer.hpp"
#include "obs/error.hpp"
#include "tensor/rng.hpp"

namespace burst::resilience {

/// Raised when a snapshot file fails validation (bad magic, wrong version,
/// truncated payload, or checksum mismatch). burst::Error code:
/// snapshot_corrupt.
class SnapshotCorruptError : public burst::Error {
 public:
  explicit SnapshotCorruptError(const std::string& what)
      : burst::Error(ErrorCode::kSnapshotCorrupt, "corrupt snapshot: " + what) {
  }
};

/// Raised when a snapshot file cannot be written or read at the I/O level
/// (open/write failure, not validation). burst::Error code: snapshot_io.
class SnapshotIoError : public burst::Error {
 public:
  explicit SnapshotIoError(const std::string& what)
      : burst::Error(ErrorCode::kSnapshotIo, "snapshot io: " + what) {}
};

// ---- generic checked-blob container ---------------------------------------
// The on-disk format every snapshot family shares (training snapshots here,
// serving checkpoints in serve/snapshot.hpp): [magic u64][version u32]
// [payload_size u64][checksum u64][payload], checksum = FNV-1a 64 over the
// payload, written to a .tmp file and committed with an atomic rename.

/// Container header overhead in bytes (magic + version + size + checksum).
constexpr std::uint64_t kBlobHeaderBytes = 8 + 4 + 8 + 8;

/// Snapshot and checkpoint I/O is charged to the virtual clock at this rate.
constexpr double kDiskBandwidthBytesPerS = 2e9;

/// Atomically writes `payload` in the checked-blob container to
/// `final_path` (a crash mid-save never leaves a partial file under that
/// name). Returns the total bytes written, header included.
std::uint64_t write_checked_blob(const std::string& final_path,
                                 const std::vector<unsigned char>& payload);

/// Reads and validates one checked-blob file; throws SnapshotCorruptError on
/// bad magic, unsupported version, truncation, or checksum mismatch.
std::vector<unsigned char> read_checked_blob(const std::string& path);

/// FNV-1a 64 over a byte range (the container checksum; exposed so tests
/// can forge/verify payloads).
std::uint64_t fnv1a64(const unsigned char* data, std::size_t n);

/// Everything the resilient training loop needs to resume a run.
struct TrainSnapshot {
  /// Next step to execute when resuming (steps [0, step) are committed).
  std::uint64_t step = 0;
  /// Position in the data stream (== step for one sequence per step).
  std::uint64_t data_cursor = 0;
  /// Data-stream generator state *before* producing step `step`'s sequence.
  tensor::RngState data_rng;
  model::ModelWeights weights;
  model::AdamState adam;
};

/// Bitwise equality of two weight sets (shape and every byte of every
/// parameter tensor). The acceptance check for crash-recovery runs.
bool bitwise_equal(const model::ModelWeights& a, const model::ModelWeights& b);

/// Serialized size of `snap` in bytes (header included) — what save() will
/// write, used to model snapshot I/O time against a disk bandwidth.
std::uint64_t snapshot_bytes(const TrainSnapshot& snap);

/// Payload codec of training snapshots, stored as snap-<step>.bin.
struct TrainSnapshotCodec {
  using Value = TrainSnapshot;
  static constexpr const char* kPrefix = "snap-";
  static std::int64_t sequence(const TrainSnapshot& snap) {
    return static_cast<std::int64_t>(snap.step);
  }
  static std::vector<unsigned char> encode(const TrainSnapshot& snap);
  /// Throws SnapshotCorruptError on any malformed payload.
  static TrainSnapshot decode(const std::vector<unsigned char>& payload);
};

/// The file side of a SnapshotStore: checked-blob files <prefix><n>.bin in
/// one directory (created if missing), the newest `keep_last` retained.
class SnapshotDir {
 public:
  SnapshotDir(std::string dir, std::string prefix, int keep_last);

  const std::string& dir() const { return dir_; }

  /// Snapshot file paths in the directory, oldest first.
  std::vector<std::string> list() const;

  /// Throws SnapshotIoError naming the oldest snapshot file when the
  /// directory already holds one. A supervisor calls this before its first
  /// save: retention would prune its own fresh snapshots in favour of
  /// another run's higher-numbered ones, and a recovery would restore them.
  void require_empty() const;

 protected:
  /// Atomically writes <prefix><sequence>.bin, then prunes the oldest files
  /// beyond keep_last. Returns the bytes written.
  std::uint64_t commit(std::int64_t sequence,
                       const std::vector<unsigned char>& payload);

 private:
  std::string dir_;
  std::string prefix_;
  int keep_last_;
};

/// Durable store for one snapshot family. `Codec` supplies the value type,
/// the file prefix, the sequence number that names a value's file and the
/// payload encode/decode.
template <typename Codec>
class SnapshotStore : public SnapshotDir {
 public:
  using Value = typename Codec::Value;

  explicit SnapshotStore(std::string dir, int keep_last = 2)
      : SnapshotDir(std::move(dir), Codec::kPrefix, keep_last) {}

  /// Atomically persists `value`; returns bytes written (header included).
  std::uint64_t save(const Value& value) {
    return commit(Codec::sequence(value), Codec::encode(value));
  }

  /// Loads and validates one snapshot file.
  Value load(const std::string& path) const {
    return Codec::decode(read_checked_blob(path));
  }

  /// Loads the newest snapshot that validates, silently skipping corrupt
  /// files. Throws SnapshotCorruptError if no valid snapshot exists.
  Value load_latest() const {
    const std::vector<std::string> all = list();
    for (auto it = all.rbegin(); it != all.rend(); ++it) {
      try {
        return load(*it);
        // burst-lint: allow(error-flow) load_latest's contract is exactly
        // this fallback: skip each corrupt snapshot and try the next-newest;
        // if none validates, the typed throw below reports it.
      } catch (const SnapshotCorruptError&) {
      }
    }
    throw SnapshotCorruptError(std::string("no valid ") + Codec::kPrefix +
                               "*.bin in " + dir());
  }
};

using SnapshotManager = SnapshotStore<TrainSnapshotCodec>;

}  // namespace burst::resilience
