#include "resilience/snapshot.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "tensor/codec.hpp"

namespace burst::resilience {

namespace fs = std::filesystem;

namespace {

// Container layout (shared via write_checked_blob / read_checked_blob):
// [magic u64][version u32][payload_size u64][checksum u64][payload bytes].
// Checksum is FNV-1a 64 over the payload only.
constexpr std::uint64_t kMagic = 0x50414E53'54525542ull;  // "BURSTSNAP"-ish
constexpr std::uint32_t kVersion = 1;

/// Sequence number of a <prefix><n>.bin file name, or -1 if `p` is not one.
std::int64_t sequence_of(const fs::path& p, const std::string& prefix) {
  const std::string name = p.filename().string();
  if (!name.starts_with(prefix) || !name.ends_with(".bin")) {
    return -1;
  }
  const char* first = name.data() + prefix.size();
  const char* last = name.data() + name.size() - 4;
  std::int64_t n = -1;
  const auto [end, err] = std::from_chars(first, last, n);
  return err == std::errc() && end == last ? n : -1;
}

}  // namespace

std::uint64_t fnv1a64(const unsigned char* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ data[i]) * 1099511628211ull;
  }
  return h;
}

std::uint64_t write_checked_blob(const std::string& final_path,
                                 const std::vector<unsigned char>& payload) {
  const std::uint64_t checksum = fnv1a64(payload.data(), payload.size());
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw SnapshotIoError("cannot open " + tmp_path);
    }
    const std::uint64_t size = payload.size();
    os.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
    os.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
    os.write(reinterpret_cast<const char*>(&size), sizeof(size));
    os.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    os.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
    if (!os) {
      throw SnapshotIoError("short write to " + tmp_path);
    }
  }
  // Atomic commit: the final name either holds the complete old file or the
  // complete new one, never a partial write.
  fs::rename(tmp_path, final_path);
  return payload.size() + kBlobHeaderBytes;
}

std::vector<unsigned char> read_checked_blob(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw SnapshotCorruptError("cannot open " + path);
  }
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  is.read(reinterpret_cast<char*>(&size), sizeof(size));
  is.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  if (!is || magic != kMagic) {
    throw SnapshotCorruptError("bad magic in " + path);
  }
  if (version != kVersion) {
    throw SnapshotCorruptError("unsupported version " +
                               std::to_string(version) + " in " + path);
  }
  // Validate the declared size against the bytes actually on disk before
  // allocating: a forged size field must not become a huge allocation.
  const std::streamoff payload_at = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff file_end = is.tellg();
  is.seekg(payload_at);
  if (!is || size > static_cast<std::uint64_t>(file_end - payload_at)) {
    throw SnapshotCorruptError("truncated payload in " + path);
  }
  std::vector<unsigned char> payload(size);
  is.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(is.gcount()) != size) {
    throw SnapshotCorruptError("truncated payload in " + path);
  }
  if (fnv1a64(payload.data(), payload.size()) != checksum) {
    throw SnapshotCorruptError("checksum mismatch in " + path);
  }
  return payload;
}

bool bitwise_equal(const model::ModelWeights& a,
                   const model::ModelWeights& b) {
  if (a.layers.size() != b.layers.size()) {
    return false;
  }
  bool equal = true;
  model::for_each_param(
      [&equal](const tensor::Tensor& x, const tensor::Tensor& y) {
        equal = equal && x.shape() == y.shape() &&
                std::memcmp(x.data(), y.data(),
                            static_cast<std::size_t>(x.numel()) *
                                sizeof(float)) == 0;
      },
      a, b);
  return equal;
}

std::vector<unsigned char> TrainSnapshotCodec::encode(
    const TrainSnapshot& snap) {
  tensor::ByteWriter w;
  w.u64(snap.step);
  w.u64(snap.data_cursor);
  w.u64(snap.data_rng.state);
  w.u32(snap.data_rng.has_spare ? 1 : 0);
  w.f64(snap.data_rng.spare);
  w.i64(snap.adam.t);
  w.u64(snap.adam.m.size());
  w.f32s(snap.adam.m.data(), snap.adam.m.size());
  w.f32s(snap.adam.v.data(), snap.adam.v.size());
  w.u64(snap.weights.layers.size());
  model::for_each_param([&w](const tensor::Tensor& t) { w.tensor(t); },
                        snap.weights);
  return w.take();
}

TrainSnapshot TrainSnapshotCodec::decode(
    const std::vector<unsigned char>& payload) {
  tensor::ByteReader<SnapshotCorruptError> r(payload.data(), payload.size(),
                                             "training snapshot");
  TrainSnapshot snap;
  snap.step = r.u64();
  snap.data_cursor = r.u64();
  snap.data_rng.state = r.u64();
  snap.data_rng.has_spare = r.u32() != 0;
  snap.data_rng.spare = r.f64();
  snap.adam.t = static_cast<int>(r.i64());
  // Each moment element is two floats: one in m, one in v.
  const std::size_t n = r.count(2 * sizeof(float));
  snap.adam.m.resize(n);
  snap.adam.v.resize(n);
  r.f32s(snap.adam.m.data(), n);
  r.f32s(snap.adam.v.data(), n);
  snap.weights.layers.resize(r.count(6 * tensor::kMinTensorBytes));
  model::for_each_param([&r](tensor::Tensor& t) { t = r.tensor(); },
                        snap.weights);
  r.finish();
  return snap;
}

std::uint64_t snapshot_bytes(const TrainSnapshot& snap) {
  return TrainSnapshotCodec::encode(snap).size() + kBlobHeaderBytes;
}

SnapshotDir::SnapshotDir(std::string dir, std::string prefix, int keep_last)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      keep_last_(std::max(1, keep_last)) {
  fs::create_directories(dir_);
}

std::uint64_t SnapshotDir::commit(std::int64_t sequence,
                                  const std::vector<unsigned char>& payload) {
  const fs::path final_path =
      fs::path(dir_) / (prefix_ + std::to_string(sequence) + ".bin");
  const std::uint64_t written =
      write_checked_blob(final_path.string(), payload);

  // Retention: drop the oldest snapshots beyond keep_last.
  std::vector<std::string> all = list();
  while (static_cast<int>(all.size()) > keep_last_) {
    fs::remove(all.front());
    all.erase(all.begin());
  }
  return written;
}

std::vector<std::string> SnapshotDir::list() const {
  std::vector<std::pair<std::int64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::int64_t seq = sequence_of(entry.path(), prefix_);
    if (seq >= 0) {
      found.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [seq, path] : found) {
    paths.push_back(std::move(path));
  }
  return paths;
}

void SnapshotDir::require_empty() const {
  const std::vector<std::string> stale = list();
  if (!stale.empty()) {
    throw SnapshotIoError("snapshot directory " + dir_ +
                          " already holds " + stale.front() +
                          " from another run; start from an empty directory");
  }
}

}  // namespace burst::resilience
