// Pass-through comm::Transport decorator that measures, on the wall clock,
// the time a rank spends inside the frame layer: send_frame (handing a
// frame to the backend) and recv_frame (mostly waiting for a peer). Every
// call forwards unchanged to the wrapped transport, so losses, wire bytes and
// virtual times are bitwise identical with and without it (train_cp4 checks
// this at step 0).
//
// One instance per rank, used only by that rank's thread.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "comm/transport.hpp"

namespace perfbench {

class TimedTransport final : public burst::comm::Transport {
 public:
  explicit TimedTransport(burst::comm::Transport& inner) : inner_(inner) {}

  double send_s() const { return send_s_; }
  double recv_s() const { return recv_s_; }
  std::uint64_t frames_sent() const { return frames_sent_; }

  const char* kind() const override { return inner_.kind(); }
  int rank() const override { return inner_.rank(); }
  int world_size() const override { return inner_.world_size(); }
  const burst::sim::Topology& topo() const override { return inner_.topo(); }
  double now(int stream) const override { return inner_.now(stream); }
  double elapsed() const override { return inner_.elapsed(); }
  void wait(int stream, burst::sim::Event e) override { inner_.wait(stream, e); }
  void sync_all() override { inner_.sync_all(); }
  void busy(double seconds, int stream, const char* label) override {
    inner_.busy(seconds, stream, label);
  }
  void compute(double flops, int stream, const char* label) override {
    inner_.compute(flops, stream, label);
  }
  burst::sim::MemoryTracker& mem() override { return inner_.mem(); }
  burst::obs::Registry* metrics() const override { return inner_.metrics(); }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }

  bool send_bytes(const burst::comm::Endpoint& dst, int tag,
                  std::vector<std::uint8_t> bytes, std::uint64_t wire_bytes,
                  int stream) override {
    return inner_.send_bytes(dst, tag, std::move(bytes), wire_bytes, stream);
  }
  std::vector<std::uint8_t> recv_bytes(const burst::comm::Endpoint& src,
                                       int tag, int stream,
                                       double timeout_s) override {
    return inner_.recv_bytes(src, tag, stream, timeout_s);
  }

  bool send_frame(const burst::comm::Endpoint& dst, int tag,
                  burst::comm::Frame frame, int stream) override {
    const double t0 = now_s();
    const bool ok = inner_.send_frame(dst, tag, std::move(frame), stream);
    send_s_ += now_s() - t0;
    ++frames_sent_;
    return ok;
  }
  burst::comm::Frame recv_frame(const burst::comm::Endpoint& src, int tag,
                                int stream, double timeout_s) override {
    const double t0 = now_s();
    burst::comm::Frame f = inner_.recv_frame(src, tag, stream, timeout_s);
    recv_s_ += now_s() - t0;
    return f;
  }

  void barrier() override { inner_.barrier(); }
  bool unreliable_network() const override {
    return inner_.unreliable_network();
  }
  double default_recv_timeout_s() const override {
    return inner_.default_recv_timeout_s();
  }

 private:
  burst::comm::Transport& inner_;
  double send_s_ = 0.0;
  double recv_s_ = 0.0;
  std::uint64_t frames_sent_ = 0;
};

}  // namespace perfbench
