// Pluggable transport abstraction under comm::Communicator.
//
// The comm API is split in two layers. Above the boundary, Communicator owns
// every *protocol* concern: frame sequence numbers, payload checksums,
// bounded retry with backoff, per-recv deadlines, wire-byte accounting and
// collective algorithms. Below the boundary, a Transport moves opaque frames
// between ranks and answers the device-side questions the protocol layer
// needs (what time is it, who am I, what does the topology look like).
//
// Two backends implement the interface:
//
//   SimTransport    (comm/sim_transport.hpp)    — wraps one rank of the
//     thread-per-device sim::Cluster. Virtual clock, deterministic fault
//     injection, bitwise-reproducible runs. Frames travel by handle: the
//     shared payload is handed to the mailbox without serialization or
//     copying.
//
//   SocketTransport (comm/socket_transport.hpp) — one OS process per rank,
//     TCP on a real network, root/worker rendezvous. Frames are serialized
//     with serialize_frame below, through the bounds-checked tensor codec
//     (tensor/codec.hpp) that snapshots share; the clock is the wall clock.
//
// Everything above Communicator (ring attention sweeps, FSDP, resilience,
// the serving engine) is written against Transport and runs unmodified on
// either backend.
//
// Time semantics ("virtual-or-wall now()"): stream identifiers come from
// sim/clock.hpp. A simulated device advances independent per-stream virtual
// timelines; a socket rank has a single wall-clock timeline and reports it
// for every stream, with wait()/sync_all() as no-ops (real time cannot be
// reordered). Protocol code may therefore use record/wait to *order* work
// and remains correct on both clocks.
//
// Failure semantics: transports throw typed burst::Error subclasses only —
// CommTimeoutError for a transport-level deadline, sim::PeerFailedError when
// the peer is known dead (socket: connection reset / EOF), CommError for
// anything else. send_frame returns false for an observable delivery failure
// a reliable protocol should retry (a dropped message on a lossy link);
// reliable media simply return true.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/clock.hpp"
#include "sim/memory.hpp"
#include "sim/topology.hpp"
#include "obs/metrics.hpp"
#include "tensor/shared_tensors.hpp"

namespace burst::comm {

/// Logical address of a peer. Rank is the address within one communicator
/// world; host/port carry the physical location where a backend has one
/// (SocketTransport's rendezvous fills them; SimTransport ignores them).
struct Endpoint {
  int rank = -1;
  std::uint32_t ipv4 = 0;    // network-order IPv4, 0 = unset/loopback
  std::uint16_t port = 0;    // 0 = unset

  static Endpoint of(int r) { return Endpoint{r, 0, 0}; }
};

/// One transport-level message: the tensor payload, the wire-byte charge
/// the protocol layer computed for it, and the protocol's typed control
/// plane, which is never charged on the wire. The payload is a shared
/// read-only handle: a transport that moves frames in memory (the
/// simulator) hands it over without copying. `ready_time` is stamped by
/// recv with the arrival time on the receiving transport's clock.
struct Frame {
  tensor::SharedTensors payload;
  std::uint64_t wire_bytes = 0;
  /// Per-peer sequence number (duplicate detection).
  std::uint64_t seq = 0;
  /// FNV-1a over `origin` and the payload bytes; 0 when the network
  /// cannot corrupt.
  std::uint32_t checksum = 0;
  /// Origin rank of a ring-sweep bundle; -1 for a plain message.
  std::int32_t origin = -1;
  double ready_time = 0.0;
};

/// Portable byte encoding of a Frame (little-endian, used by every
/// byte-oriented backend): u32 magic, u32 tensor count, u64 wire_bytes,
/// u64 seq, u32 checksum, i32 origin, then each tensor in the shared
/// tensor/codec.hpp encoding (u32 rank + i64 dims + f32 data). Decoding
/// checks every count and size against the bytes that remain before
/// allocating; any malformed or hostile input throws CommError.
std::vector<std::uint8_t> serialize_frame(const Frame& frame);
Frame deserialize_frame(const std::uint8_t* data, std::size_t size);

class Transport {
 public:
  virtual ~Transport() = default;

  /// Stable backend name ("sim", "socket") used as a metric label.
  virtual const char* kind() const = 0;

  // --- identity & addressing ----------------------------------------------
  virtual int rank() const = 0;
  virtual int world_size() const = 0;
  /// Logical link structure (which peers are "intra-node"); backends without
  /// physical structure report a flat single-node topology.
  virtual const sim::Topology& topo() const = 0;

  // --- virtual-or-wall clock ----------------------------------------------
  virtual double now(int stream) const = 0;
  /// Max over streams (device elapsed time).
  virtual double elapsed() const = 0;
  sim::Event record(int stream) const { return sim::Event{now(stream)}; }
  /// Orders `stream` after `e`. Virtual clocks jump; wall clocks no-op
  /// (real time already passed).
  virtual void wait(int stream, sim::Event e) = 0;
  /// Joins all streams (device-wide sync point). Wall clocks no-op.
  virtual void sync_all() = 0;
  /// Occupies `stream` for `seconds` (sim: advances the virtual stream;
  /// socket: sleeps). Used for retry backoff and modeled non-FLOP costs.
  virtual void busy(double seconds, int stream = sim::kCompute,
                    const char* label = "busy") = 0;
  /// Charges `flops` of work. Sim converts to virtual seconds at the
  /// configured device rate; socket ranks do real work in real time, so the
  /// charge is a no-op there.
  virtual void compute(double flops, int stream = sim::kCompute,
                       const char* label = "compute") = 0;

  // --- device-side accounting ---------------------------------------------
  virtual sim::MemoryTracker& mem() = 0;
  /// Metrics registry; null when observability is off (callers must guard).
  virtual obs::Registry* metrics() const = 0;
  /// Wire bytes sent through this transport so far.
  virtual std::uint64_t bytes_sent() const = 0;

  // --- messaging ----------------------------------------------------------
  /// Byte primitives: the portable contract every backend implements.
  /// `wire_bytes` is the semantic payload charge (what accounting and the
  /// cost model see), independent of the encoded size. Returns false when
  /// the transport observed a delivery failure worth retrying.
  virtual bool send_bytes(const Endpoint& dst, int tag,
                          std::vector<std::uint8_t> bytes,
                          std::uint64_t wire_bytes, int stream) = 0;
  /// Blocks until a frame with `tag` from `src` arrives. `timeout_s` bounds
  /// the real wait where the backend can hang (sockets); backends whose
  /// blocked receives are woken by the runtime (the simulator's abort
  /// machinery) may ignore it. Throws CommTimeoutError on expiry.
  virtual std::vector<std::uint8_t> recv_bytes(const Endpoint& src, int tag,
                                               int stream,
                                               double timeout_s) = 0;

  /// Frame layer used by Communicator. The default implementations encode
  /// through serialize_frame/send_bytes; backends with a richer native
  /// message type (the simulator's tensor mailboxes) override them.
  virtual bool send_frame(const Endpoint& dst, int tag, Frame frame,
                          int stream);
  virtual Frame recv_frame(const Endpoint& src, int tag, int stream,
                           double timeout_s);

  /// World-wide rendezvous: returns once every rank has entered.
  virtual void barrier() = 0;

  /// True when frames can be dropped, duplicated or corrupted in flight, so
  /// the protocol layer needs its integrity machinery (checksums, a payload
  /// handle kept for retransmission). Reliable media return false and
  /// fault-free runs pay nothing for the hardening.
  virtual bool unreliable_network() const = 0;

  /// Backend default for Reliability::recv_timeout_s when the caller leaves
  /// it unset: infinity for the simulator (a blocked recv is woken by the
  /// abort machinery, never hung), finite for sockets (a dead peer would
  /// block forever).
  virtual double default_recv_timeout_s() const = 0;
};

}  // namespace burst::comm
