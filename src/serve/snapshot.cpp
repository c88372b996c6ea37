#include "serve/snapshot.hpp"

#include "tensor/codec.hpp"

namespace burst::serve {

using resilience::SnapshotCorruptError;

namespace {

// Smallest encoding of one slot: four u32 fields, then eight 8-byte fields
// (prefilled, blocks_held, first_token_s, finish_s, the generated and
// token_times counts, cache_len and the stream count).
constexpr std::size_t kMinSlotBytes = 4 * sizeof(std::uint32_t) + 8 * 8;

}  // namespace

std::vector<unsigned char> serialize_checkpoint(const EngineCheckpoint& ck) {
  tensor::ByteWriter w;
  w.i64(ck.iteration);
  w.f64(ck.time_s);
  w.i64(ck.preempted);
  w.u64(ck.slots.size());
  for (const auto& s : ck.slots) {
    w.u32(s.state);
    w.u32(s.outcome);
    w.u32(s.reject_reason);
    w.u32(s.admission_checked ? 1 : 0);
    w.i64(s.prefilled);
    w.i64(s.blocks_held);
    w.f64(s.first_token_s);
    w.f64(s.finish_s);
    w.u64(s.generated.size());
    for (const std::int64_t t : s.generated) {
      w.i64(t);
    }
    w.u64(s.token_times.size());
    for (const double t : s.token_times) {
      w.f64(t);
    }
    w.i64(s.cache_len);
    w.u64(s.k.size());
    for (std::size_t i = 0; i < s.k.size(); ++i) {
      w.tensor(s.k[i]);
      w.tensor(s.v[i]);
    }
  }
  return w.take();
}

EngineCheckpoint deserialize_checkpoint(
    const std::vector<unsigned char>& payload) {
  tensor::ByteReader<SnapshotCorruptError> r(payload.data(), payload.size(),
                                             "serve checkpoint");
  EngineCheckpoint ck;
  ck.iteration = r.i64();
  ck.time_s = r.f64();
  ck.preempted = r.i64();
  ck.slots.resize(r.count(kMinSlotBytes));
  for (auto& s : ck.slots) {
    s.state = r.u32();
    s.outcome = r.u32();
    s.reject_reason = r.u32();
    s.admission_checked = r.u32() != 0;
    s.prefilled = r.i64();
    s.blocks_held = r.i64();
    s.first_token_s = r.f64();
    s.finish_s = r.f64();
    s.generated.resize(r.count(sizeof(std::int64_t)));
    for (auto& t : s.generated) {
      t = r.i64();
    }
    s.token_times.resize(r.count(sizeof(double)));
    for (auto& t : s.token_times) {
      t = r.f64();
    }
    s.cache_len = r.i64();
    // Each stream is a K and a V tensor.
    const std::size_t streams = r.count(2 * tensor::kMinTensorBytes);
    s.k.reserve(streams);
    s.v.reserve(streams);
    for (std::size_t i = 0; i < streams; ++i) {
      s.k.push_back(r.tensor());
      s.v.push_back(r.tensor());
    }
  }
  r.finish();
  return ck;
}

std::uint64_t checkpoint_bytes(const EngineCheckpoint& ck) {
  return serialize_checkpoint(ck).size() + resilience::kBlobHeaderBytes;
}

}  // namespace burst::serve
