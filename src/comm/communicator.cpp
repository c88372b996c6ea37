#include "comm/communicator.hpp"

#include <cassert>
#include <cmath>
#include <numeric>
#include <string>

#include "obs/metrics.hpp"
#include "tensor/ops.hpp"

namespace burst::comm {

using tensor::Tensor;

namespace {

/// Backoff before retry k (0-based) is kBackoffBaseS * kBackoffMult^k,
/// charged to the sending stream (visible in traces as "retry-backoff").
constexpr double kBackoffBaseS = 20e-6;
constexpr double kBackoffMult = 2.0;

/// FNV-1a (32-bit) over the frame's bundle origin and the raw bytes of
/// every payload tensor. Cheap, deterministic, and sensitive to any
/// in-flight bit flip in what the receiver consumes.
std::uint32_t frame_checksum(const Frame& frame) {
  std::uint32_t h = 2166136261u;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 16777619u;
    }
  };
  mix(&frame.origin, sizeof(frame.origin));
  for (const auto& t : *frame.payload) {
    mix(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  }
  return h;
}

}  // namespace

std::uint64_t Communicator::wire_bytes(const std::vector<Tensor>& ts) const {
  double total = 0.0;
  for (const auto& t : ts) {
    total += static_cast<double>(t.numel()) * wire_bytes_per_element_;
  }
  return static_cast<std::uint64_t>(total);
}

int Communicator::stream_for(int peer) const {
  return tp_.topo().same_node(tp_.rank(), peer) ? sim::kIntraComm
                                                : sim::kInterComm;
}

void Communicator::send_frame(int dst, int tag, tensor::SharedTensors payload,
                              std::uint64_t bytes, int origin, int stream) {
  // On a reliable network (no message faults possible) skip the integrity
  // machinery: no checksum pass over the payload, and the payload handle is
  // moved into the one attempt so the receiver ends up its sole holder.
  const bool lossy = tp_.unreliable_network();
  const std::uint64_t seq = ++send_seq_[dst];
  Frame frame;
  frame.payload = std::move(payload);
  frame.wire_bytes = bytes;
  frame.seq = seq;
  frame.origin = origin;
  frame.checksum = lossy ? frame_checksum(frame) : 0;
  for (int attempt = 0;; ++attempt) {
    // Lossy: keep the handle in case this attempt is dropped.
    Frame sent = lossy ? frame : std::move(frame);
    if (tp_.send_frame(Endpoint::of(dst), tag, std::move(sent), stream)) {
      return;
    }
    if (attempt + 1 >= kMaxSendAttempts) {
      throw CommTimeoutError(
          dst, "frame " + std::to_string(seq) + " lost after " +
                   std::to_string(attempt + 1) + " attempts");
    }
    ++retries_;
    if (obs::Registry* reg = tp_.metrics()) {
      // Rare path (a link fault fired); lazy lookup is fine here.
      reg->counter(obs::labeled("comm.retries",
                                {{"rank", std::to_string(tp_.rank())}}))
          .add(1);
    }
    tp_.busy(kBackoffBaseS * std::pow(kBackoffMult, attempt), stream,
             "retry-backoff");
  }
}

Frame Communicator::recv_frame(int src, int tag, int stream) {
  const double begin = tp_.now(stream);
  const bool lossy = tp_.unreliable_network();
  const double timeout = effective_recv_timeout_s();
  for (;;) {
    Frame frame = tp_.recv_frame(Endpoint::of(src), tag, stream, timeout);
    if (frame.seq == last_recv_seq_[src]) {
      // A link fault delivered this frame twice; drop the late copy.
      ++duplicates_discarded_;
      if (obs::Registry* reg = tp_.metrics()) {
        reg->counter(
               obs::labeled("comm.duplicates_discarded",
                            {{"rank", std::to_string(tp_.rank())}}))
            .add(1);
      }
      continue;
    }
    if (lossy && frame_checksum(frame) != frame.checksum) {
      throw CommCorruptionError(
          src, "checksum mismatch on frame " + std::to_string(frame.seq));
    }
    last_recv_seq_[src] = frame.seq;
    if (frame.ready_time > begin + timeout) {
      throw CommTimeoutError(
          src, "frame " + std::to_string(frame.seq) + " ready at t=" +
                   std::to_string(frame.ready_time) + "s, deadline was t=" +
                   std::to_string(begin + timeout) + "s");
    }
    return frame;
  }
}

void Communicator::send(int dst, int tag, std::vector<Tensor> tensors) {
  const std::uint64_t bytes = wire_bytes(tensors);
  send_frame(dst, tag, tensor::SharedTensors(std::move(tensors)), bytes,
             /*origin=*/-1, stream_for(dst));
}

std::vector<Tensor> Communicator::recv(int src, int tag) {
  return std::move(recv_frame(src, tag, stream_for(src)).payload).take();
}

void Communicator::send_bundle(int dst, int tag, Bundle bundle, int stream) {
  const std::uint64_t bytes = wire_bytes(*bundle.payload);
  send_frame(dst, tag, std::move(bundle.payload), bytes, bundle.origin,
             stream);
}

Communicator::Bundle Communicator::recv_bundle(int src, int tag, int stream) {
  Frame frame = recv_frame(src, tag, stream);
  return Bundle{std::move(frame.payload), frame.origin};
}

int Communicator::fresh_tag_block() {
  const int base = tag_counter_;
  tag_counter_ += 1024;  // room for per-step tags inside one collective
  return base;
}

Tensor Communicator::all_gather_rows(const Tensor& local) {
  const int g = world_size();
  const int r = rank();
  const int base = fresh_tag_block();
  assert(local.rank() == 2);
  const std::int64_t m = local.rows();
  Tensor full(m * g, local.cols());
  full.set_rows(r * m, local);
  // Canonical ring all-gather: at step s forward chunk (r - s) mod g.
  for (int s = 0; s < g - 1; ++s) {
    const int send_idx = ((r - s) % g + g) % g;
    const int recv_idx = ((r - s - 1) % g + g) % g;
    const int next = (r + 1) % g;
    const int prev = (r + g - 1) % g;
    send(next, base + s, {full.copy_rows(send_idx * m, m)});
    auto got = recv(prev, base + s);
    full.set_rows(recv_idx * m, got.at(0));
  }
  return full;
}

Tensor Communicator::reduce_scatter_rows(const Tensor& full) {
  const int g = world_size();
  const int r = rank();
  const int base = fresh_tag_block();
  assert(full.rank() == 2 && full.rows() % g == 0);
  const std::int64_t m = full.rows() / g;
  Tensor work = full;  // chunks accumulate in place
  // Shifted canonical ring reduce-scatter: device r ends owning chunk r.
  for (int s = 0; s < g - 1; ++s) {
    const int send_idx = ((r - s - 1) % g + g) % g;
    const int recv_idx = ((r - s - 2) % g + g) % g;
    const int next = (r + 1) % g;
    const int prev = (r + g - 1) % g;
    send(next, base + s, {work.copy_rows(send_idx * m, m)});
    auto got = recv(prev, base + s);
    Tensor chunk = work.copy_rows(recv_idx * m, m);
    tensor::add_inplace(chunk, got.at(0));
    work.set_rows(recv_idx * m, chunk);
  }
  return work.copy_rows(r * m, m);
}

void Communicator::all_reduce_inplace(Tensor& t) {
  const int g = world_size();
  if (g == 1) {
    return;
  }
  assert(t.rank() == 2 && t.rows() % g == 0);
  Tensor shard = reduce_scatter_rows(t);
  t = all_gather_rows(shard);
}

std::vector<Tensor> Communicator::all_to_all(std::vector<Tensor> send_bufs) {
  std::vector<int> world(static_cast<std::size_t>(world_size()));
  std::iota(world.begin(), world.end(), 0);
  return all_to_all_group(world, std::move(send_bufs));
}

std::vector<Tensor> Communicator::all_to_all_group(
    const std::vector<int>& group, std::vector<Tensor> send_bufs) {
  const int gm = static_cast<int>(group.size());
  const int base = fresh_tag_block();
  int pos = -1;
  for (int i = 0; i < gm; ++i) {
    if (group[static_cast<std::size_t>(i)] == rank()) {
      pos = i;
    }
  }
  assert(pos >= 0 && static_cast<int>(send_bufs.size()) == gm);
  std::vector<Tensor> out(static_cast<std::size_t>(gm));
  out[static_cast<std::size_t>(pos)] =
      std::move(send_bufs[static_cast<std::size_t>(pos)]);
  // Pairwise exchange schedule (standard MPI_Alltoall): at step s exchange
  // with positions (pos + s) and (pos - s).
  for (int s = 1; s < gm; ++s) {
    const int dst_pos = (pos + s) % gm;
    const int src_pos = (pos - s + gm) % gm;
    send(group[static_cast<std::size_t>(dst_pos)], base + s,
         {std::move(send_bufs[static_cast<std::size_t>(dst_pos)])});
    auto got = recv(group[static_cast<std::size_t>(src_pos)], base + s);
    out[static_cast<std::size_t>(src_pos)] = std::move(got.at(0));
  }
  return out;
}

void Communicator::all_reduce_group_inplace(const std::vector<int>& group,
                                            Tensor& t) {
  const int gm = static_cast<int>(group.size());
  const int base = fresh_tag_block();
  if (gm == 1) {
    return;
  }
  int pos = -1;
  for (int i = 0; i < gm; ++i) {
    if (group[static_cast<std::size_t>(i)] == rank()) {
      pos = i;
    }
  }
  assert(pos >= 0);
  // Flat exchange: everyone sends to everyone, then every member sums the
  // contributions in group-position order (position 0's tensor first), so
  // all members hold the same bits.
  for (int i = 0; i < gm; ++i) {
    if (i != pos) {
      send(group[static_cast<std::size_t>(i)], base + pos, {t});
    }
  }
  Tensor acc;
  for (int i = 0; i < gm; ++i) {
    Tensor got;
    if (i != pos) {
      got = std::move(recv(group[static_cast<std::size_t>(i)], base + i).at(0));
    }
    const Tensor& part = i == pos ? t : got;
    if (i == 0) {
      acc = part;
    } else {
      tensor::add_inplace(acc, part);
    }
  }
  t = std::move(acc);
}

void Communicator::broadcast(Tensor& t, int root) {
  const int g = world_size();
  const int base = fresh_tag_block();
  if (g == 1) {
    return;
  }
  if (rank() == root) {
    for (int dst = 0; dst < g; ++dst) {
      if (dst != root) {
        send(dst, base, {t});
      }
    }
  } else {
    t = recv(root, base).at(0);
  }
}

}  // namespace burst::comm
