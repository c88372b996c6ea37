#include "comm/communicator.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "obs/metrics.hpp"
#include "tensor/ops.hpp"

namespace burst::comm {

using tensor::Tensor;

namespace {

/// FNV-1a (32-bit) over the raw bytes of every tensor in the frame. Cheap,
/// deterministic, and sensitive to any in-flight bit flip.
std::uint32_t frame_checksum(const std::vector<Tensor>& ts) {
  std::uint32_t h = 2166136261u;
  for (const auto& t : ts) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
    const std::size_t n = static_cast<std::size_t>(t.numel()) * sizeof(float);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 16777619u;
    }
  }
  return h;
}

/// The checksum is carried as two 16-bit halves so both floats hold their
/// value exactly (a float mantissa cannot represent all 32-bit integers).
Tensor make_header(std::int64_t seq, std::uint32_t checksum) {
  // Sequence numbers must stay exactly representable in a float.
  assert(seq < (std::int64_t{1} << 24));
  Tensor hdr(3);
  hdr[0] = static_cast<float>(seq);
  hdr[1] = static_cast<float>(checksum & 0xFFFFu);
  hdr[2] = static_cast<float>((checksum >> 16) & 0xFFFFu);
  return hdr;
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

void Communicator::send_frame(int dst, int tag, std::vector<Tensor> payload,
                              std::uint64_t bytes, int stream) {
  const std::int64_t seq = ++send_seq_[dst];
  // On a reliable network (no message faults possible) skip the integrity
  // machinery: no checksum pass over the payload and no retransmission
  // copy, so fault-free runs take a zero-overhead path.
  const bool lossy = tp_.unreliable_network();
  payload.push_back(make_header(seq, lossy ? frame_checksum(payload) : 0));
  for (int attempt = 0;; ++attempt) {
    Frame frame;
    frame.wire_bytes = bytes;
    if (lossy) {
      frame.tensors = payload;  // keep a copy in case this attempt is dropped
    } else {
      frame.tensors = std::move(payload);
    }
    if (tp_.send_frame(Endpoint::of(dst), tag, std::move(frame), stream)) {
      return;
    }
    if (attempt + 1 >= rel_.max_send_attempts) {
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
    tp_.busy(rel_.backoff_base_s * std::pow(rel_.backoff_mult, attempt),
             stream, "retry-backoff");
  }
}

std::vector<Tensor> Communicator::recv_frame(int src, int tag, int stream) {
  const double begin = tp_.now(stream);
  const bool lossy = tp_.unreliable_network();
  const double timeout = effective_recv_timeout_s();
  for (;;) {
    Frame frame = tp_.recv_frame(Endpoint::of(src), tag, stream, timeout);
    assert(!frame.tensors.empty());  // every comm-layer message is framed
    Tensor hdr = std::move(frame.tensors.back());
    frame.tensors.pop_back();
    const auto seq = static_cast<std::int64_t>(std::llround(hdr[0]));
    if (seq == last_recv_seq_[src]) {
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
    const std::uint32_t expect =
        static_cast<std::uint32_t>(std::llround(hdr[1])) |
        (static_cast<std::uint32_t>(std::llround(hdr[2])) << 16);
    if (lossy && frame_checksum(frame.tensors) != expect) {
      throw CommCorruptionError(
          src, "checksum mismatch on frame " + std::to_string(seq));
    }
    last_recv_seq_[src] = seq;
    if (frame.ready_time > begin + timeout) {
      throw CommTimeoutError(
          src, "frame " + std::to_string(seq) + " ready at t=" +
                   std::to_string(frame.ready_time) + "s, deadline was t=" +
                   std::to_string(begin + timeout) + "s");
    }
    return std::move(frame.tensors);
  }
}

void Communicator::send(int dst, int tag, std::vector<Tensor> tensors) {
  send_on(dst, tag, std::move(tensors), stream_for(dst));
}

void Communicator::send_on(int dst, int tag, std::vector<Tensor> tensors,
                           int stream) {
  const std::uint64_t bytes = wire_bytes(tensors);
  send_frame(dst, tag, std::move(tensors), bytes, stream);
}

std::vector<Tensor> Communicator::recv(int src, int tag) {
  return recv_on(src, tag, stream_for(src));
}

std::vector<Tensor> Communicator::recv_on(int src, int tag, int stream) {
  return recv_frame(src, tag, stream);
}

void Communicator::send_bundle(int dst, int tag, Bundle bundle, int stream) {
  const std::uint64_t bytes =
      wire_bytes(bundle.tensors);  // meta excluded: control plane
  Tensor meta(1);
  meta[0] = static_cast<float>(bundle.meta);
  bundle.tensors.push_back(std::move(meta));
  send_frame(dst, tag, std::move(bundle.tensors), bytes, stream);
}

Communicator::Bundle Communicator::recv_bundle(int src, int tag, int stream) {
  std::vector<Tensor> tensors = recv_frame(src, tag, stream);
  Bundle b;
  b.meta = static_cast<int>(tensors.back()[0]);
  tensors.pop_back();
  b.tensors = std::move(tensors);
  return b;
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
  // Flat exchange: everyone sends to everyone, sums locally. O(G^2) traffic
  // but only used for small subgroups / toy validation.
  for (int i = 0; i < gm; ++i) {
    if (i != pos) {
      send(group[static_cast<std::size_t>(i)], base + pos, {t});
    }
  }
  Tensor acc = t;
  for (int i = 0; i < gm; ++i) {
    if (i != pos) {
      auto got = recv(group[static_cast<std::size_t>(i)], base + i);
      tensor::add_inplace(acc, got.at(0));
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
