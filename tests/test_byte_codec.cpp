// The shared byte codec (tensor/codec.hpp) at all three of its boundaries:
// comm frames, training snapshots and serving checkpoints.
//
// CodecFormatPin hashes each encoding of a fixed input with FNV-1a 64 and
// compares it with a pinned constant. A mismatch means old snapshots stop
// loading or socket peers of different builds stop interoperating. The
// fixed frame sets every typed control-plane field (a sequence number past
// 2^24 included), so the pin and the mutation test cover the frame header.
//
// CodecMutation feeds seeded bit flips, truncations and extreme length
// fields over valid encodings to each decoder. Every input must either
// decode or throw the boundary's typed burst::Error subclass (CommError for
// frames, SnapshotCorruptError for snapshots and checkpoints). Anything else
// (bad_alloc, length_error, a sanitizer report) is a hole in the
// hostile-input checks.
//
// The API front door is the fourth boundary: api::parse_completion_request
// reports malformed bodies as data rather than throwing, so a mutated body
// must either parse into a request inside the documented ranges or return
// false with a 400 carrying kInvalidRequest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "api/parser.hpp"
#include "comm/errors.hpp"
#include "comm/transport.hpp"
#include "resilience/snapshot.hpp"
#include "serve/snapshot.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"
#include "temp_dir.hpp"

namespace burst {
namespace {

namespace fs = std::filesystem;

using Bytes = std::vector<std::uint8_t>;
using resilience::SnapshotCorruptError;
using resilience::TrainSnapshot;
using resilience::TrainSnapshotCodec;
using serve::EngineCheckpoint;
using tensor::Rng;
using tensor::Tensor;

// Exactly representable values, so the fixtures are identical on every
// platform and compiler.
Tensor ramp(std::int64_t rows, std::int64_t cols, float start) {
  Tensor t(rows, cols);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = start + 0.25f * static_cast<float>(i);
  }
  return t;
}

comm::Frame fixed_frame() {
  Tensor v(4);
  for (std::int64_t i = 0; i < 4; ++i) {
    v[i] = -2.0f + static_cast<float>(i);
  }
  comm::Frame f;
  f.payload = tensor::SharedTensors({ramp(2, 3, 1.0f), v, Tensor()});
  f.wire_bytes = 96;
  f.seq = (std::uint64_t{1} << 40) + 3;
  f.checksum = 0x9e3779b9u;
  f.origin = 5;
  return f;
}

TrainSnapshot fixed_snapshot() {
  TrainSnapshot s;
  s.step = 5;
  s.data_cursor = 5;
  s.data_rng.state = 0x0123456789abcdefull;
  s.data_rng.has_spare = true;
  s.data_rng.spare = -0.75;
  s.adam.t = 5;
  s.adam.m = {0.5f, -1.0f, 2.0f, 0.125f};
  s.adam.v = {0.25f, 4.0f, 0.0f, 1.5f};
  s.weights.layers.resize(2);
  float start = 0.0f;
  for (auto& l : s.weights.layers) {
    l.wq = ramp(2, 2, start += 1.0f);
    l.wk = ramp(2, 2, start += 1.0f);
    l.wv = ramp(2, 2, start += 1.0f);
    l.wo = ramp(2, 2, start += 1.0f);
    l.w1 = ramp(2, 3, start += 1.0f);
    l.w2 = ramp(3, 2, start += 1.0f);
  }
  s.weights.w_embed = ramp(4, 2, -3.0f);
  s.weights.w_head = ramp(4, 2, 3.0f);
  return s;
}

EngineCheckpoint fixed_checkpoint() {
  EngineCheckpoint ck;
  ck.iteration = 9;
  ck.time_s = 0.5;
  ck.preempted = 1;
  ck.slots.resize(2);
  auto& a = ck.slots[0];
  a.state = 2;
  a.admission_checked = true;
  a.prefilled = 3;
  a.blocks_held = 1;
  a.first_token_s = 0.25;
  a.generated = {7, 11};
  a.token_times = {0.25, 0.375};
  a.cache_len = 3;
  for (int s = 0; s < 2; ++s) {
    a.k.push_back(ramp(3, 2, static_cast<float>(s)));
    a.v.push_back(ramp(3, 2, static_cast<float>(-s)));
  }
  auto& b = ck.slots[1];
  b.state = 4;
  b.outcome = 2;
  b.reject_reason = 1;
  b.finish_s = 0.125;
  return ck;
}

std::uint64_t fnv(const Bytes& b) {
  return resilience::fnv1a64(b.data(), b.size());
}

Bytes read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(is),
               std::istreambuf_iterator<char>());
}

/// Saves fixed_snapshot() through a fresh SnapshotManager in `dir`; returns
/// the file it wrote.
fs::path saved_snapshot_file(const fs::path& dir) {
  fs::remove_all(dir);
  resilience::SnapshotManager(dir.string()).save(fixed_snapshot());
  return dir / "snap-5.bin";
}

Bytes encoded_frame() { return comm::serialize_frame(fixed_frame()); }
Bytes encoded_snapshot() {
  return TrainSnapshotCodec::encode(fixed_snapshot());
}
Bytes encoded_checkpoint() {
  return serve::serialize_checkpoint(fixed_checkpoint());
}

// --- format pin -------------------------------------------------------------

TEST(CodecFormatPin, FrameBytes) {
  const Bytes bytes = encoded_frame();
  EXPECT_EQ(fnv(bytes), 0xa2085af1b8e8bb7eull);
  const comm::Frame back = comm::deserialize_frame(bytes.data(), bytes.size());
  EXPECT_EQ(comm::serialize_frame(back), bytes);
}

// The control plane is typed integers: sequence numbers past a float's 2^24
// exact range and negative origins survive the byte boundary exactly.
TEST(CodecFormatPin, FrameControlPlaneRoundTripsExactly) {
  for (const std::uint64_t seq :
       {(std::uint64_t{1} << 24) + 1, (std::uint64_t{1} << 40) + 1,
        ~std::uint64_t{0}}) {
    for (const std::int32_t origin : {-1, 0, 7}) {
      comm::Frame f = fixed_frame();
      f.seq = seq;
      f.origin = origin;
      f.checksum = 0xfffffffeu;
      const Bytes bytes = comm::serialize_frame(f);
      const comm::Frame back =
          comm::deserialize_frame(bytes.data(), bytes.size());
      EXPECT_EQ(back.seq, seq);
      EXPECT_EQ(back.origin, origin);
      EXPECT_EQ(back.checksum, 0xfffffffeu);
      EXPECT_EQ(back.wire_bytes, 96u);
      EXPECT_EQ(back.payload->size(), 3u);
    }
  }
}

TEST(CodecFormatPin, TrainingSnapshotPayloadBytes) {
  const Bytes bytes = encoded_snapshot();
  EXPECT_EQ(fnv(bytes), 0x96be8d90832a3af6ull);
  EXPECT_EQ(TrainSnapshotCodec::encode(TrainSnapshotCodec::decode(bytes)),
            bytes);
}

TEST(CodecFormatPin, TrainingSnapshotFileBytes) {
  const TempDir tmp("burst-codec-pin");
  EXPECT_EQ(fnv(read_file(saved_snapshot_file(tmp.path() / "snapshots"))),
            0x987328c6c0bf206eull);
}

TEST(CodecFormatPin, ServeCheckpointBytes) {
  const Bytes bytes = encoded_checkpoint();
  EXPECT_EQ(fnv(bytes), 0x01694e9208728d8cull);
  EXPECT_EQ(serve::serialize_checkpoint(serve::deserialize_checkpoint(bytes)),
            bytes);
}

// --- seeded mutation --------------------------------------------------------

constexpr int kIterations = 3000;

// Length-like values a hostile peer or a bit-rotted file could carry.
constexpr std::uint64_t kExtremes[] = {
    ~0ull,         1ull << 63,    (1ull << 63) - 1, 1ull << 62,
    1ull << 40,    1ull << 32,    0xffffffffull,    0x80000000ull,
    0x40000000ull, 0x10000ull};

// One random mutation of `valid`: flip 1-4 bits, truncate, or overwrite a
// 4-byte-aligned u32/u64 field (every field of the three formats starts on
// a 4-byte boundary) with an extreme value.
Bytes mutate(const Bytes& valid, Rng& rng) {
  Bytes b = valid;
  const auto size = static_cast<std::int64_t>(b.size());
  switch (rng.next_index(3)) {
    case 0: {
      const std::int64_t flips = 1 + rng.next_index(4);
      for (std::int64_t i = 0; i < flips; ++i) {
        const auto at = static_cast<std::size_t>(rng.next_index(size));
        b[at] = static_cast<std::uint8_t>(b[at] ^ (1u << rng.next_index(8)));
      }
      break;
    }
    case 1:
      b.resize(static_cast<std::size_t>(rng.next_index(size)));
      break;
    default: {
      const std::uint64_t v = kExtremes[rng.next_index(
          static_cast<std::int64_t>(std::size(kExtremes)))];
      const std::int64_t width = rng.next_index(2) == 0 ? 4 : 8;
      const auto at =
          static_cast<std::size_t>(4 * rng.next_index((size - width) / 4 + 1));
      // Writes the low `width` bytes of `v` (little-endian).
      std::memcpy(b.data() + at, &v, static_cast<std::size_t>(width));
      break;
    }
  }
  return b;
}

struct Outcomes {
  int decoded = 0;
  int rejected = 0;
  std::string last_rejection;
};

/// Decodes `kIterations` mutations of `valid`; each must decode or throw
/// the boundary's typed error `Expected`.
template <typename Expected, typename Decode>
Outcomes fuzz(const Bytes& valid, std::uint64_t seed, Decode decode) {
  Rng rng(seed);
  Outcomes out;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes b = mutate(valid, rng);
    try {
      decode(b);
      ++out.decoded;
    } catch (const Expected& e) {
      out.last_rejection = e.what();
      ++out.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << i << " (seed " << seed
                    << ") threw the wrong type: " << e.what();
    }
  }
  return out;
}

TEST(CodecMutation, FrameDecodesOrThrowsTyped) {
  const auto decode = [](const Bytes& b) {
    comm::deserialize_frame(b.data(), b.size());
  };
  const Outcomes o = fuzz<comm::CommError>(encoded_frame(), 101, decode);
  EXPECT_GT(o.rejected, kIterations / 2) << "last: " << o.last_rejection;
  EXPECT_GT(o.decoded, 0);
}

TEST(CodecMutation, TrainingSnapshotDecodesOrThrowsTyped) {
  const auto decode = [](const Bytes& b) { TrainSnapshotCodec::decode(b); };
  const Outcomes o =
      fuzz<SnapshotCorruptError>(encoded_snapshot(), 202, decode);
  EXPECT_GT(o.rejected, kIterations / 2) << "last: " << o.last_rejection;
  EXPECT_GT(o.decoded, 0);
}

TEST(CodecMutation, ServeCheckpointDecodesOrThrowsTyped) {
  const auto decode = [](const Bytes& b) { serve::deserialize_checkpoint(b); };
  const Outcomes o =
      fuzz<SnapshotCorruptError>(encoded_checkpoint(), 303, decode);
  EXPECT_GT(o.rejected, kIterations / 2) << "last: " << o.last_rejection;
  EXPECT_GT(o.decoded, 0);
}

// The same mutations on a whole snapshot file: the container header (size
// and checksum fields included) must fail typed too, never allocate by a
// forged size.
TEST(CodecMutation, SnapshotFileLoadsOrThrowsTyped) {
  const TempDir tmp("burst-codec-mutation");
  const fs::path dir = tmp.path() / "snapshots";
  const fs::path path = saved_snapshot_file(dir);
  const resilience::SnapshotManager mgr(dir.string());
  const auto load = [&](const Bytes& b) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(reinterpret_cast<const char*>(b.data()),
               static_cast<std::streamsize>(b.size()));
    }
    mgr.load(path.string());
  };
  const Outcomes o = fuzz<SnapshotCorruptError>(read_file(path), 404, load);
  EXPECT_GT(o.rejected, kIterations / 2) << "last: " << o.last_rejection;
}

TEST(CodecMutation, CompletionRequestParsesInRangeOrRejects400) {
  const std::string valid =
      "{\"tenant\": \"acme\", \"priority\": \"interactive\", "
      "\"prompt\": [1, 2, 3, 40, 5], \"max_tokens\": 32, "
      "\"ttft_slo_ms\": 250, \"timeout_ms\": 5000, \"tpot_slo_ms\": 40}";
  api::CompletionRequest req;
  api::ApiError err;
  ASSERT_TRUE(api::parse_completion_request(valid, &req, &err)) << err.message;

  Rng rng(505);
  Outcomes o;
  const auto size = static_cast<std::int64_t>(valid.size());
  for (int i = 0; i < kIterations; ++i) {
    std::string body = valid;
    if (rng.next_index(2) == 0) {
      const std::int64_t flips = 1 + rng.next_index(4);
      for (std::int64_t f = 0; f < flips; ++f) {
        const auto at = static_cast<std::size_t>(rng.next_index(size));
        body[at] = static_cast<char>(body[at] ^ (1 << rng.next_index(8)));
      }
    } else {
      body.resize(static_cast<std::size_t>(rng.next_index(size)));
    }
    req = api::CompletionRequest{};
    err = api::ApiError{};
    bool parsed = false;
    try {
      parsed = api::parse_completion_request(body, &req, &err);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << i << " threw: " << e.what();
      continue;
    }
    if (parsed) {
      ++o.decoded;
      EXPECT_FALSE(req.prompt.empty()) << "iteration " << i;
      for (const std::int64_t tok : req.prompt) {
        EXPECT_GE(tok, 0) << "iteration " << i;
      }
      EXPECT_GE(req.max_tokens, 1) << "iteration " << i;
      EXPECT_LE(req.max_tokens, std::int64_t{1} << 20) << "iteration " << i;
      EXPECT_GE(req.tenant.size(), 1u) << "iteration " << i;
      EXPECT_LE(req.tenant.size(), 64u) << "iteration " << i;
    } else {
      ++o.rejected;
      o.last_rejection = err.message;
      EXPECT_EQ(err.status, 400) << "iteration " << i;
      EXPECT_EQ(err.code, ErrorCode::kInvalidRequest) << "iteration " << i;
      EXPECT_FALSE(err.message.empty()) << "iteration " << i;
    }
  }
  EXPECT_GT(o.rejected, kIterations / 2) << "last: " << o.last_rejection;
  EXPECT_GT(o.decoded, 0);
}

}  // namespace
}  // namespace burst
