// Durable snapshots (src/resilience/snapshot.hpp): round-trip fidelity,
// atomic commit, corruption rejection, retention — and the acceptance
// property that restoring a snapshot resumes training bitwise identically
// to a run that was never interrupted.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "model/dist_model.hpp"
#include "model/optimizer.hpp"
#include "resilience/driver.hpp"
#include "resilience/snapshot.hpp"
#include "sim/cluster.hpp"
#include "tensor/rng.hpp"
#include "temp_dir.hpp"

namespace burst {
namespace {

namespace fs = std::filesystem;

using model::AdamConfig;
using model::AdamOptimizer;
using model::DistTrainConfig;
using model::ModelConfig;
using model::ModelGrads;
using model::ModelWeights;
using resilience::SnapshotCorruptError;
using resilience::SnapshotManager;
using resilience::TrainSnapshot;
using sim::Cluster;
using sim::DeviceContext;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

/// Fresh per-test snapshot directory under the system temp dir.
class SnapshotTest : public ::testing::Test {
 protected:
  TempDir tmp_{"burst-snap"};
  std::string dir_ = tmp_.path().string();
};

TrainSnapshot make_snapshot(std::uint64_t step, std::uint64_t seed) {
  ModelConfig cfg = ModelConfig::toy();
  TrainSnapshot snap;
  snap.step = step;
  snap.data_cursor = step;
  Rng rng(seed);
  rng.next_gaussian();  // populate the Box-Muller spare
  snap.data_rng = rng.save_state();
  snap.weights = ModelWeights::init(cfg, seed);
  AdamOptimizer opt(snap.weights, AdamConfig{});
  snap.adam = opt.export_state();
  return snap;
}

TEST_F(SnapshotTest, RoundTripIsBitwise) {
  SnapshotManager mgr(dir_);
  TrainSnapshot snap = make_snapshot(7, 11);
  const std::uint64_t written = mgr.save(snap);
  EXPECT_EQ(written, resilience::snapshot_bytes(snap));

  TrainSnapshot back = mgr.load_latest();
  EXPECT_EQ(back.step, 7u);
  EXPECT_EQ(back.data_cursor, 7u);
  EXPECT_EQ(back.data_rng.state, snap.data_rng.state);
  EXPECT_EQ(back.data_rng.has_spare, snap.data_rng.has_spare);
  EXPECT_EQ(back.data_rng.spare, snap.data_rng.spare);
  EXPECT_EQ(back.adam.t, snap.adam.t);
  EXPECT_TRUE(back.adam.m == snap.adam.m);
  EXPECT_TRUE(back.adam.v == snap.adam.v);
  EXPECT_TRUE(resilience::bitwise_equal(back.weights, snap.weights));
}

TEST_F(SnapshotTest, SaveCommitsAtomically) {
  SnapshotManager mgr(dir_);
  mgr.save(make_snapshot(3, 1));
  bool saw_snapshot = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos)
        << "temporary file leaked: " << name;
    saw_snapshot = saw_snapshot || name == "snap-3.bin";
  }
  EXPECT_TRUE(saw_snapshot);
}

TEST_F(SnapshotTest, CorruptByteFlipRejectedAndSkipped) {
  SnapshotManager mgr(dir_, /*keep_last=*/4);
  mgr.save(make_snapshot(1, 1));
  mgr.save(make_snapshot(2, 2));

  // Flip one payload byte in the newest snapshot.
  const std::string newest = mgr.list().back();
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64, std::ios::beg);
    char b = 0;
    f.seekg(64, std::ios::beg);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(64, std::ios::beg);
    f.write(&b, 1);
  }
  EXPECT_THROW(mgr.load(newest), SnapshotCorruptError);
  // load_latest falls back to the older valid snapshot.
  EXPECT_EQ(mgr.load_latest().step, 1u);
}

TEST_F(SnapshotTest, TruncatedFileRejected) {
  SnapshotManager mgr(dir_);
  mgr.save(make_snapshot(5, 3));
  const std::string path = mgr.list().back();
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_THROW(mgr.load(path), SnapshotCorruptError);
  EXPECT_THROW(mgr.load_latest(), SnapshotCorruptError);  // nothing valid left
}

TEST_F(SnapshotTest, KeepLastPrunesOldest) {
  SnapshotManager mgr(dir_, /*keep_last=*/2);
  mgr.save(make_snapshot(1, 1));
  mgr.save(make_snapshot(2, 2));
  mgr.save(make_snapshot(3, 3));
  const auto paths = mgr.list();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NE(paths[0].find("snap-2.bin"), std::string::npos);
  EXPECT_NE(paths[1].find("snap-3.bin"), std::string::npos);
}

// Hostile sizes: every count in a snapshot is checked against the bytes
// that remain before anything is allocated.

// Byte offset of the Adam moment count in a training snapshot payload: after
// step, data_cursor, the RNG state (u64 state, u32 has_spare, f64 spare) and
// adam.t.
constexpr std::size_t kMomentCountAt = 8 + 8 + 8 + 4 + 8 + 8;

/// Writes `payload` with the 8 bytes at `at` replaced by `value` as a
/// correctly checksummed snapshot file, so only the decoder can reject it.
std::string write_forged(const std::string& dir,
                         std::vector<unsigned char> payload, std::size_t at,
                         std::uint64_t value) {
  std::memcpy(payload.data() + at, &value, sizeof(value));
  const std::string path = (fs::path(dir) / "snap-99.bin").string();
  resilience::write_checked_blob(path, payload);
  return path;
}

TEST_F(SnapshotTest, HugeMomentAndLayerCountsRejected) {
  SnapshotManager mgr(dir_);
  const TrainSnapshot snap = make_snapshot(1, 1);
  mgr.save(snap);
  const auto payload = resilience::read_checked_blob(mgr.list().back());
  std::uint64_t moments = 0;
  std::memcpy(&moments, payload.data() + kMomentCountAt, sizeof(moments));
  ASSERT_EQ(moments, snap.adam.m.size());
  // The layer count follows the m and v moment arrays.
  const std::size_t layer_count_at =
      kMomentCountAt + 8 + 2 * moments * sizeof(float);

  for (const std::size_t at : {kMomentCountAt, layer_count_at}) {
    const std::string path = write_forged(dir_, payload, at, 1ull << 62);
    EXPECT_THROW(mgr.load(path), SnapshotCorruptError) << "offset " << at;
  }
}

TEST_F(SnapshotTest, ForgedBlobSizeRejectedBeforeAllocating) {
  SnapshotManager mgr(dir_, /*keep_last=*/4);
  mgr.save(make_snapshot(1, 1));
  mgr.save(make_snapshot(2, 2));
  // Forge the newest file's header payload size (after the u64 magic and
  // the u32 version) to 2^62 bytes.
  const std::string newest = mgr.list().back();
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint64_t forged = 1ull << 62;
    f.seekp(8 + 4, std::ios::beg);
    f.write(reinterpret_cast<const char*>(&forged), sizeof(forged));
  }
  EXPECT_THROW(mgr.load(newest), SnapshotCorruptError);
  EXPECT_EQ(mgr.load_latest().step, 1u);
}

/// Runs `n` deterministic distributed training steps in-place.
void train_steps(const DistTrainConfig& dc, ModelWeights& w,
                 AdamOptimizer& opt, Rng& data_rng, int n) {
  Cluster cluster({Topology::single_node(2)});
  for (int i = 0; i < n; ++i) {
    Tensor tokens =
        resilience::make_markov_sequence(data_rng, 32, dc.model.vocab);
    ModelGrads grads;
    std::mutex mu;
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      comm::Communicator comm(comm_tp);
      auto r = model::dist_train_step(comm, dc, w, tokens);
      if (ctx.rank() == 0) {
        std::lock_guard lock(mu);
        grads = std::move(r.grads);
      }
    });
    opt.step(w, grads);
  }
}

// The satellite acceptance test: train k steps, snapshot, let the run
// diverge (extra steps mutate weights, optimizer moments, and the data-RNG
// cursor), restore — the continuation must match an uninterrupted run
// bit for bit, including optimizer state and the data stream.
TEST_F(SnapshotTest, RestoredTrainingContinuesBitwiseIdentically) {
  DistTrainConfig dc;
  dc.model = ModelConfig::toy();
  const AdamConfig ac;

  // Uninterrupted reference: 3 + 3 steps.
  ModelWeights ref = ModelWeights::init(dc.model, 42);
  AdamOptimizer ref_opt(ref, ac);
  Rng ref_rng(99);
  train_steps(dc, ref, ref_opt, ref_rng, 3);

  // Snapshot the k=3 state.
  SnapshotManager mgr(dir_);
  TrainSnapshot snap;
  snap.step = 3;
  snap.data_cursor = 3;
  snap.data_rng = ref_rng.save_state();
  snap.weights = ref;
  snap.adam = ref_opt.export_state();
  mgr.save(snap);

  train_steps(dc, ref, ref_opt, ref_rng, 3);  // reference continues to 6

  // Perturbed run: wander past the snapshot point (different data, extra
  // optimizer steps), then restore and replay the last 3 steps.
  ModelWeights w = snap.weights;
  AdamOptimizer opt(w, ac);
  opt.restore_state(snap.adam);
  Rng rng(7);  // wrong stream on purpose
  train_steps(dc, w, opt, rng, 2);
  EXPECT_FALSE(resilience::bitwise_equal(w, ref));

  TrainSnapshot restored = mgr.load_latest();
  w = restored.weights;
  opt.restore_state(restored.adam);
  rng.restore_state(restored.data_rng);
  train_steps(dc, w, opt, rng, 3);

  EXPECT_TRUE(resilience::bitwise_equal(w, ref));
  EXPECT_EQ(opt.export_state().t, ref_opt.export_state().t);
  EXPECT_TRUE(opt.export_state().m == ref_opt.export_state().m);
  EXPECT_TRUE(opt.export_state().v == ref_opt.export_state().v);
  // The data stream is also back in lockstep.
  EXPECT_EQ(rng.save_state().state, ref_rng.save_state().state);
}

}  // namespace
}  // namespace burst
