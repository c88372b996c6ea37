// Simulator backend for comm::Transport.
//
// Wraps one rank of the thread-per-device sim::Cluster (sim/cluster.hpp):
// virtual per-stream clocks, deterministic fault injection, memory
// accounting, and bitwise-reproducible runs. This is the default transport —
// every test and bench that predates the transport split runs on it with
// byte-identical virtual times.
//
// Frames travel by handle: send_frame hands the shared payload and the typed
// control plane straight to the cluster mailbox, with no serialization and
// no copy, so every hop of a ring sweep reads the tensors its origin rank
// built. The fault layer's corruption clones the payload before it flips
// bits and duplication shares it. The byte primitives are still implemented
// (a byte frame rides inside a single tensor) so transport conformance tests
// can exercise the portable contract.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "comm/transport.hpp"
#include "sim/cluster.hpp"

namespace burst::comm {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(sim::DeviceContext& ctx) : ctx_(ctx) {}

  /// The wrapped simulator rank, for callers that drive simulator-only
  /// machinery (fault scheduling, trace capture) alongside the comm API.
  sim::DeviceContext& ctx() { return ctx_; }

  const char* kind() const override { return "sim"; }

  int rank() const override { return ctx_.rank(); }
  int world_size() const override { return ctx_.world_size(); }
  const sim::Topology& topo() const override { return ctx_.topo(); }

  double now(int stream) const override { return ctx_.clock().now(stream); }
  double elapsed() const override { return ctx_.clock().elapsed(); }
  void wait(int stream, sim::Event e) override { ctx_.clock().wait(stream, e); }
  void sync_all() override { ctx_.clock().sync_all(); }
  void busy(double seconds, int stream, const char* label) override {
    ctx_.busy(seconds, stream, label);
  }
  void compute(double flops, int stream, const char* label) override {
    ctx_.compute(flops, stream, label);
  }

  sim::MemoryTracker& mem() override { return ctx_.mem(); }
  obs::Registry* metrics() const override { return ctx_.metrics(); }
  std::uint64_t bytes_sent() const override { return ctx_.bytes_sent(); }

  bool send_frame(const Endpoint& dst, int tag, Frame frame,
                  int stream) override {
    sim::Message msg;
    msg.payload = std::move(frame.payload);
    msg.bytes = frame.wire_bytes;
    msg.seq = frame.seq;
    msg.checksum = frame.checksum;
    msg.origin = frame.origin;
    return ctx_.try_send(dst.rank, tag, std::move(msg), stream);
  }

  Frame recv_frame(const Endpoint& src, int tag, int stream,
                   double timeout_s) override {
    (void)timeout_s;  // blocked sim receives are woken by the abort machinery
    sim::Message msg = ctx_.recv(src.rank, tag, stream);
    Frame frame;
    frame.payload = std::move(msg.payload);
    frame.wire_bytes = msg.bytes;
    frame.seq = msg.seq;
    frame.checksum = msg.checksum;
    frame.origin = msg.origin;
    frame.ready_time = msg.ready_time;
    return frame;
  }

  bool send_bytes(const Endpoint& dst, int tag, std::vector<std::uint8_t> bytes,
                  std::uint64_t wire_bytes, int stream) override;
  std::vector<std::uint8_t> recv_bytes(const Endpoint& src, int tag,
                                       int stream, double timeout_s) override;

  void barrier() override { ctx_.barrier(); }
  bool unreliable_network() const override {
    return ctx_.unreliable_network();
  }
  double default_recv_timeout_s() const override {
    return std::numeric_limits<double>::infinity();
  }

 private:
  sim::DeviceContext& ctx_;
};

}  // namespace burst::comm
