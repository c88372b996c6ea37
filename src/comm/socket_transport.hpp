// TCP socket backend for comm::Transport: one OS process (or thread) per
// rank, real kernel sockets, wall clock.
//
// Rendezvous (root/worker, after distributed-llama's multi-node design):
// every rank opens a data listener on an OS-assigned port, then
//   * workers dial the root's well-known rendezvous endpoint and register
//     {rank, data endpoint};
//   * the root collects all registrations and replies to each worker with
//     the full rank -> endpoint table;
//   * the data mesh is then established pairwise: rank j dials every rank
//     i < j's data listener (an acceptor thread fields the inbound dials),
//     so the mesh build needs no further coordination.
//
// Wire format per message: a fixed header {magic, tag, payload size, wire
// bytes} followed by the serialize_frame payload. TCP gives an ordered
// reliable stream per peer; tags are demultiplexed receiver-side through a
// per-(peer, tag) inbox, preserving the simulator mailbox semantics (a rank
// may receive tag B before an earlier-arrived tag A).
//
// Time: a single wall-clock timeline reported for every stream. A blocked
// receive polls with a deadline — unlike the simulator there is no abort
// machinery to wake it, so Reliability::recv_timeout_s resolves to this
// transport's finite default (config.recv_timeout_s) instead of infinity.
//
// Thread model: the constructor runs accept/connect threads to build the
// mesh and joins them before returning; after construction the transport is
// single-threaded (one rank = one protocol thread), like DeviceContext.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "comm/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/memory.hpp"
#include "sim/topology.hpp"

namespace burst::comm {

struct SocketTransportConfig {
  int rank = -1;
  int world_size = 0;
  /// Rendezvous endpoint every rank knows up front. ipv4 == 0 means
  /// loopback. Rank 0 binds it (unless rendezvous_listen_fd is given);
  /// workers dial it.
  Endpoint root;
  /// Pre-bound, listening socket for the rendezvous (rank 0 only; -1 when
  /// unused). Lets a launcher bind port 0 first, learn the real port, and
  /// hand both to the ranks — no bind/dial race. Ownership transfers to the
  /// transport.
  int rendezvous_listen_fd = -1;
  /// Default per-recv deadline (Reliability::recv_timeout_s resolves to
  /// this when left at Reliability::kTransportDefault). Finite: a hung or
  /// dead peer must surface as CommTimeoutError, not a forever block.
  double recv_timeout_s = 15.0;
  /// Optional metrics registry (not owned); byte/message counters are
  /// published per link class and rank, like the simulator's.
  obs::Registry* metrics = nullptr;
};

class SocketTransport final : public Transport {
 public:
  /// Builds the full mesh; blocks until every rank is connected. Throws
  /// CommTimeoutError when rendezvous or mesh build exceeds the 10 s connect
  /// deadline, sim::PeerFailedError when a peer dies mid-build.
  explicit SocketTransport(SocketTransportConfig cfg);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Binds a loopback rendezvous listener on an OS-assigned port. Returns
  /// the listening fd and stores the port in *port_out; pass the fd to rank
  /// 0's config (rendezvous_listen_fd) and the port to every rank's
  /// config.root.port.
  static int bind_rendezvous_listener(std::uint16_t* port_out);

  const char* kind() const override { return "socket"; }

  int rank() const override { return cfg_.rank; }
  int world_size() const override { return cfg_.world_size; }
  /// A flat single node of world_size ranks: every link rides the
  /// intra-node stream.
  const sim::Topology& topo() const override { return topo_; }

  double now(int stream) const override;
  double elapsed() const override;
  void wait(int stream, sim::Event e) override {
    (void)stream;
    (void)e;  // wall time is already ordered
  }
  void sync_all() override {}
  void busy(double seconds, int stream, const char* label) override;
  void compute(double flops, int stream, const char* label) override {
    // Socket ranks do real work in real time; there is nothing to charge.
    (void)flops;
    (void)stream;
    (void)label;
  }

  sim::MemoryTracker& mem() override { return mem_; }
  obs::Registry* metrics() const override { return cfg_.metrics; }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }

  bool send_bytes(const Endpoint& dst, int tag, std::vector<std::uint8_t> bytes,
                  std::uint64_t wire_bytes, int stream) override;
  std::vector<std::uint8_t> recv_bytes(const Endpoint& src, int tag,
                                       int stream, double timeout_s) override;

  void barrier() override;
  /// TCP already guarantees in-order reliable delivery, but the protocol
  /// layer's end-to-end frame checksum also catches cross-process
  /// encode/truncation bugs, so sockets always verify it.
  bool unreliable_network() const override { return true; }
  double default_recv_timeout_s() const override { return cfg_.recv_timeout_s; }

 private:
  struct PeerAddr {
    std::uint32_t ipv4 = 0;
    std::uint16_t port = 0;
  };

  void rendezvous(std::uint16_t data_port);
  void build_mesh();
  /// Reads the next wire message from `src`'s socket into the inbox.
  /// `deadline` is an absolute now()-clock time; +inf blocks indefinitely.
  void pump_peer(int src, double deadline);
  void account_send(int dst, std::uint64_t wire_bytes);

  SocketTransportConfig cfg_;
  sim::Topology topo_;
  double start_time_ = 0.0;  // steady-clock origin, seconds
  sim::MemoryTracker mem_;
  int listen_fd_ = -1;
  std::vector<int> peer_fd_;           // by rank; -1 for self/unconnected
  std::vector<PeerAddr> table_;        // rank -> data endpoint
  // Per-(src, tag) inbox of already-read payloads (tag demultiplexing).
  std::map<std::pair<int, int>, std::deque<std::vector<std::uint8_t>>> inbox_;
  std::uint64_t bytes_sent_ = 0;
  // Pre-resolved metric counters (null when no registry attached).
  obs::Counter* obs_bytes_intra_ = nullptr;
  obs::Counter* obs_bytes_inter_ = nullptr;
  obs::Counter* obs_msgs_intra_ = nullptr;
  obs::Counter* obs_msgs_inter_ = nullptr;
};

}  // namespace burst::comm
