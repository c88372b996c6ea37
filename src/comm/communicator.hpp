// MPI/NCCL-style communicator over a pluggable Transport.
//
// Provides point-to-point tensor transfer plus the collectives the
// reproduction needs: ring all-gather, ring reduce-scatter, all-reduce,
// all-to-all (DeepSpeed-Ulysses) and broadcast. All ranks must call
// collectives in the same order — tags are generated from a per-communicator
// counter that stays aligned because the code is SPMD (same call sequence on
// every rank), mirroring how NCCL matches collectives by launch order.
//
// The communicator is constructed over a comm::Transport (transport.hpp) and
// owns every protocol concern above it — framing, sequence numbers,
// checksums, retry, deadlines, collective algorithms — so the same code runs
// on the virtual-clock simulator (SimTransport) and on real TCP processes
// (SocketTransport) without modification.
//
// Wire accounting: payloads are fp32 in functional mode but charged at
// `wire_bytes_per_element` (default 2, i.e. bf16 on the wire like the paper's
// training setup), so simulated times and measured byte counters match the
// paper's arithmetic.
//
// Payloads: a message's tensors travel as one shared read-only handle
// (tensor::SharedTensors). send() wraps its vector by move and recv()
// unwraps by move when it holds the only handle, so point-to-point traffic
// and collectives pay no copy; a ring-sweep bundle is forwarded as the
// handle itself, so a shard visited by every rank exists once.
//
// Reliability: every frame carries a typed control plane (Frame::seq,
// Frame::checksum, Frame::origin). Sends observe link-level drops
// (sim::FaultPlan) and retry with exponential backoff up to
// kMaxSendAttempts, charging the backoff to the sending stream; a
// retransmission resends the same payload handle. Receives discard
// duplicate frames by sequence number, reject corrupted frames
// (CommCorruptionError), and enforce a per-recv deadline against the
// transport clock (CommTimeoutError). The control plane is excluded from
// wire-byte accounting. When the transport cannot damage messages
// (Transport::unreliable_network() is false) the checksum pass is skipped
// entirely, so fault-free runs pay no overhead for the hardening.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "comm/errors.hpp"
#include "comm/transport.hpp"
#include "tensor/shared_tensors.hpp"
#include "tensor/tensor.hpp"

namespace burst::comm {

/// Total transmission attempts per frame (1 initial + retries) before a
/// send gives up with CommTimeoutError. Retries absorb transient link
/// faults transparently; a fault-free run takes the first-attempt path with
/// zero overhead.
inline constexpr int kMaxSendAttempts = 4;

/// Per-communicator reliability knobs.
struct Reliability {
  /// Sentinel for recv_timeout_s: defer to the transport's default deadline.
  static constexpr double kTransportDefault = -1.0;

  /// Per-recv deadline on the transport clock: a message whose ready time is
  /// later than recv-begin + recv_timeout_s raises CommTimeoutError.
  ///
  /// Any negative value (the default) resolves to
  /// Transport::default_recv_timeout_s(), which differs by backend:
  ///   * simulator — infinity. A blocked virtual-clock recv can never hang
  ///     the process (the cluster's abort machinery wakes it when a peer
  ///     dies), so an un-asked-for deadline would only add spurious failures
  ///     to long chaos runs.
  ///   * sockets — finite (SocketTransportConfig::recv_timeout_s, ~15 s).
  ///     A dead TCP peer otherwise blocks forever with no one to wake us.
  /// Set an explicit non-negative value to override either backend.
  double recv_timeout_s = kTransportDefault;
};

class Communicator {
 public:
  explicit Communicator(Transport& transport,
                        double wire_bytes_per_element = 2.0)
      : tp_(transport), wire_bytes_per_element_(wire_bytes_per_element) {}

  Transport& transport() { return tp_; }
  const Transport& transport() const { return tp_; }
  int rank() const { return tp_.rank(); }
  int world_size() const { return tp_.world_size(); }

  void set_reliability(const Reliability& r) { rel_ = r; }

  /// The recv deadline actually in force: rel_.recv_timeout_s when
  /// non-negative, else the transport's default.
  double effective_recv_timeout_s() const {
    return rel_.recv_timeout_s < 0.0 ? tp_.default_recv_timeout_s()
                                     : rel_.recv_timeout_s;
  }

  /// Retransmissions performed by this communicator (drops absorbed).
  std::uint64_t retries() const { return retries_; }
  /// Duplicate frames discarded by sequence-number matching.
  std::uint64_t duplicates_discarded() const { return duplicates_discarded_; }

  /// Wire bytes a bundle of tensors occupies.
  std::uint64_t wire_bytes(const std::vector<tensor::Tensor>& ts) const;

  /// Stream used for a message to/from `peer`: intra-node traffic rides the
  /// NVLink (kIntraComm) stream, inter-node traffic the IB (kInterComm)
  /// stream, matching the separate rails of Figure 4.
  int stream_for(int peer) const;

  // --- point to point ------------------------------------------------------
  void send(int dst, int tag, std::vector<tensor::Tensor> tensors);
  std::vector<tensor::Tensor> recv(int src, int tag);

  /// A bundle in flight around a ring: the shared payload plus the *origin
  /// rank* of the shard, so receivers can reconstruct its IndexMap. The
  /// origin is control plane and excluded from wire-byte accounting.
  /// Sending a copy of a bundle shares its tensors; a sender that moves the
  /// bundle in keeps no reference, so the receiver can take() them by move.
  struct Bundle {
    tensor::SharedTensors payload;
    int origin = -1;
  };
  void send_bundle(int dst, int tag, Bundle bundle, int stream);
  Bundle recv_bundle(int src, int tag, int stream);

  // --- collectives (flat ring algorithms) ----------------------------------

  /// Concatenates each rank's equal-shape [m, c] shard into [G*m, c],
  /// ordered by rank. Ring algorithm, G-1 steps.
  tensor::Tensor all_gather_rows(const tensor::Tensor& local);

  /// Element-wise sum across ranks of a [G*m, c] input, returning this
  /// rank's [m, c] shard. Ring algorithm, G-1 steps.
  tensor::Tensor reduce_scatter_rows(const tensor::Tensor& full);

  /// Element-wise sum across ranks, full result everywhere
  /// (reduce-scatter + all-gather). `t` rows must be divisible by G.
  void all_reduce_inplace(tensor::Tensor& t);

  /// Rank i's `send[j]` arrives as rank j's `result[i]`.
  std::vector<tensor::Tensor> all_to_all(std::vector<tensor::Tensor> send);

  /// All-to-all restricted to `group` (this rank must be a member; all
  /// members must call with the same group vector). `send` and the result
  /// are indexed by *group position*, not global rank. Used by USP's
  /// head-group exchange (DeepSpeed-Ulysses is its one-group case).
  std::vector<tensor::Tensor> all_to_all_group(const std::vector<int>& group,
                                               std::vector<tensor::Tensor> send);

  /// All-reduce over a rank subgroup: a flat exchange (O(G^2) messages),
  /// summed in group-position order so every member gets the same bits.
  /// dist_train_step syncs its loss and gradients through it.
  void all_reduce_group_inplace(const std::vector<int>& group,
                                tensor::Tensor& t);

  void broadcast(tensor::Tensor& t, int root);

  void barrier() { tp_.barrier(); }

 private:
  int fresh_tag_block();

  /// Framed transmission with bounded retry: stamps the sequence number,
  /// checksum and `origin`, attempts delivery up to kMaxSendAttempts times
  /// with exponential backoff between attempts. `bytes` is the
  /// payload's wire charge (control plane excluded).
  void send_frame(int dst, int tag, tensor::SharedTensors payload,
                  std::uint64_t bytes, int origin, int stream);

  /// Framed receive: validates the control plane, discards duplicate
  /// frames, rejects corruption, enforces the recv deadline.
  Frame recv_frame(int src, int tag, int stream);

  Transport& tp_;
  double wire_bytes_per_element_;
  Reliability rel_;
  // Collective tags live above 2^20 so user p2p tags below never collide.
  int tag_counter_ = 1 << 20;
  // Per-peer frame sequence numbers (send side / last accepted on recv).
  std::map<int, std::uint64_t> send_seq_;
  std::map<int, std::uint64_t> last_recv_seq_;
  std::uint64_t retries_ = 0;
  std::uint64_t duplicates_discarded_ = 0;
};

}  // namespace burst::comm
