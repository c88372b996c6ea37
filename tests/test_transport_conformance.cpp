// Transport conformance suite: every test body is written once against the
// comm::Transport contract and instantiated over both backends — the
// virtual-clock simulator (SimTransport over a thread-per-rank sim::Cluster)
// and real TCP (SocketTransport, one transport per thread on loopback, wired
// through the root/worker rendezvous). A backend passes by behaving
// identically at the protocol layer: tag demultiplexing, collective results,
// sequence-number duplicate discard, checksum rejection, bounded retry and
// recv deadlines.
//
// Protocol faults are injected through FaultDecorator, a Transport wrapper
// that drops, duplicates or corrupts frames *below* the Communicator — the
// same mechanism on both backends, so the reliability machinery is proven
// portable rather than simulator-only. (The multi-process smoke test lives
// in examples/dist_ring_tcp.cpp; here socket ranks are threads so gtest
// assertions work normally.)
#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "comm/socket_transport.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "comm/errors.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"
#include "tensor/tensor.hpp"

namespace burst::comm {
namespace {

using sim::Cluster;
using sim::DeviceContext;
using sim::Topology;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Harness: run one SPMD body on every rank of a `world`-sized job, on either
// backend. Assertion state lives in the body's captures (indexed by rank);
// exceptions escaping a rank propagate out of run_world on both backends.
using RankBody = std::function<void(Transport&)>;

void run_sim_world(int world, const RankBody& body) {
  Cluster cluster({Topology::single_node(world)});
  cluster.run([&](DeviceContext& ctx) {
    SimTransport tp(ctx);
    body(tp);
  });
}

void run_socket_world(int world, const RankBody& body) {
  std::uint16_t port = 0;
  const int listen_fd = SocketTransport::bind_rendezvous_listener(&port);
  std::vector<std::thread> ranks;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  ranks.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      try {
        SocketTransportConfig cfg;
        cfg.rank = r;
        cfg.world_size = world;
        cfg.root.port = port;
        cfg.rendezvous_listen_fd = r == 0 ? listen_fd : -1;
        SocketTransport tp(cfg);
        body(tp);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : ranks) {
    t.join();
  }
  for (const auto& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

void run_world(const std::string& backend, int world, const RankBody& body) {
  if (backend == "sim") {
    run_sim_world(world, body);
  } else {
    run_socket_world(world, body);
  }
}

// ---------------------------------------------------------------------------
// FaultDecorator: injects protocol-visible faults below the Communicator,
// uniformly over any inner transport. Faults act at the frame layer (what
// the protocol hands down), and unreliable_network() forces the integrity
// machinery on so checksums are carried on both backends.
class FaultDecorator final : public Transport {
 public:
  enum class Fault { kNone, kDropOnce, kDropAlways, kDuplicateOnce,
                     kCorruptOnce };

  FaultDecorator(Transport& inner, Fault fault)
      : inner_(inner), fault_(fault) {}

  const char* kind() const override { return inner_.kind(); }
  int rank() const override { return inner_.rank(); }
  int world_size() const override { return inner_.world_size(); }
  const sim::Topology& topo() const override { return inner_.topo(); }
  double now(int stream) const override { return inner_.now(stream); }
  double elapsed() const override { return inner_.elapsed(); }
  void wait(int stream, sim::Event e) override { inner_.wait(stream, e); }
  void sync_all() override { inner_.sync_all(); }
  void busy(double seconds, int stream, const char* label) override {
    inner_.busy(seconds, stream, label);
  }
  void compute(double flops, int stream, const char* label) override {
    inner_.compute(flops, stream, label);
  }
  sim::MemoryTracker& mem() override { return inner_.mem(); }
  obs::Registry* metrics() const override { return inner_.metrics(); }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }

  bool send_bytes(const Endpoint& dst, int tag, std::vector<std::uint8_t> bytes,
                  std::uint64_t wire_bytes, int stream) override {
    return inner_.send_bytes(dst, tag, std::move(bytes), wire_bytes, stream);
  }
  std::vector<std::uint8_t> recv_bytes(const Endpoint& src, int tag, int stream,
                                       double timeout_s) override {
    return inner_.recv_bytes(src, tag, stream, timeout_s);
  }

  bool send_frame(const Endpoint& dst, int tag, Frame frame,
                  int stream) override {
    switch (fault_) {
      case Fault::kDropOnce:
        if (!fired_) {
          fired_ = true;
          return false;  // observable delivery failure: protocol retries
        }
        break;
      case Fault::kDropAlways:
        return false;
      case Fault::kDuplicateOnce:
        if (!fired_) {
          fired_ = true;
          Frame copy = frame;
          if (!inner_.send_frame(dst, tag, std::move(copy), stream)) {
            return false;
          }
        }
        break;
      case Fault::kCorruptOnce:
        if (!fired_ && !frame.payload->empty() &&
            frame.payload->front().numel() > 0) {
          fired_ = true;
          // Flip bits in a private copy: the payload is shared with the
          // sender, whose tensors must never change.
          std::vector<Tensor> rotted = *frame.payload;
          rotted.front().data()[0] += 1024.0f;
          frame.payload = tensor::SharedTensors(std::move(rotted));
        }
        break;
      case Fault::kNone:
        break;
    }
    return inner_.send_frame(dst, tag, std::move(frame), stream);
  }
  Frame recv_frame(const Endpoint& src, int tag, int stream,
                   double timeout_s) override {
    return inner_.recv_frame(src, tag, stream, timeout_s);
  }

  void barrier() override { inner_.barrier(); }
  bool unreliable_network() const override { return true; }
  double default_recv_timeout_s() const override {
    return inner_.default_recv_timeout_s();
  }

 private:
  Transport& inner_;
  Fault fault_;
  bool fired_ = false;
};

class TransportConformance
    : public ::testing::TestWithParam<const char*> {};

// ---------------------------------------------------------------------------
// Identity & defaults: what the protocol layer reads off the backend.
TEST_P(TransportConformance, ReportsIdentityAndBackendDefaults) {
  const std::string backend = GetParam();
  const int world = 2;
  std::vector<int> ok(world, 0);
  run_world(backend, world, [&](Transport& tp) {
    bool good = tp.world_size() == world && tp.kind() == backend;
    good = good && tp.topo().same_node(0, 1);  // flat default topology
    if (backend == "sim") {
      // Blocked sim receives are woken by the abort machinery; no deadline.
      good = good && std::isinf(tp.default_recv_timeout_s());
      good = good && !tp.unreliable_network();  // no fault plan installed
    } else {
      // A dead TCP peer can hang a recv forever: the default is finite,
      // and checksums stay on across process boundaries.
      good = good && std::isfinite(tp.default_recv_timeout_s()) &&
             tp.default_recv_timeout_s() > 0.0;
      good = good && tp.unreliable_network();
    }
    ok[static_cast<std::size_t>(tp.rank())] = good ? 1 : 0;
    tp.barrier();
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Byte primitives: ordered per (peer, tag), demultiplexed across tags — a
// later-posted tag can be received first without losing the earlier one.
TEST_P(TransportConformance, BytePrimitivesDemultiplexTags) {
  const int world = 2;
  std::vector<int> ok(world, 0);
  run_world(GetParam(), world, [&](Transport& tp) {
    const std::vector<std::uint8_t> a{1, 2, 3};
    const std::vector<std::uint8_t> b{9, 8, 7, 6};
    const std::vector<std::uint8_t> empty;
    if (tp.rank() == 0) {
      tp.send_bytes(Endpoint::of(1), /*tag=*/5, a, a.size(), sim::kIntraComm);
      tp.send_bytes(Endpoint::of(1), /*tag=*/5, b, b.size(), sim::kIntraComm);
      tp.send_bytes(Endpoint::of(1), /*tag=*/6, empty, 0, sim::kIntraComm);
      ok[0] = 1;
    } else {
      const double inf = tp.default_recv_timeout_s();
      // Drain tag 6 first, then tag 5 in posted order.
      auto got6 = tp.recv_bytes(Endpoint::of(0), 6, sim::kIntraComm, inf);
      auto got5a = tp.recv_bytes(Endpoint::of(0), 5, sim::kIntraComm, inf);
      auto got5b = tp.recv_bytes(Endpoint::of(0), 5, sim::kIntraComm, inf);
      ok[1] = (got6 == empty && got5a == a && got5b == b) ? 1 : 0;
    }
    tp.barrier();
  });
  EXPECT_EQ(ok[0], 1);
  EXPECT_EQ(ok[1], 1);
}

// ---------------------------------------------------------------------------
// Collectives through the Communicator: ring all-gather and pairwise
// all-to-all produce identical results and identical wire-byte accounting on
// both backends.
TEST_P(TransportConformance, RingAllGatherRowsMatchesOnBothBackends) {
  const int world = 4;
  const std::int64_t m = 2, c = 3;
  std::vector<int> ok(world, 0);
  run_world(GetParam(), world, [&](Transport& tp) {
    Communicator comm(tp);
    const int r = tp.rank();
    Tensor local(m, c);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < c; ++j) {
        local(i, j) = static_cast<float>(100 * r + 10 * i + j);
      }
    }
    Tensor full = comm.all_gather_rows(local);
    bool good = full.rows() == m * world && full.cols() == c;
    for (int src = 0; src < world && good; ++src) {
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < c; ++j) {
          good = good && full(src * m + i, j) ==
                             static_cast<float>(100 * src + 10 * i + j);
        }
      }
    }
    // Accounting conformance: each rank forwarded world-1 shards of m*c
    // elements at 2 wire bytes per element, headers excluded.
    const auto expect_bytes =
        static_cast<std::uint64_t>((world - 1) * m * c * 2);
    good = good && tp.bytes_sent() == expect_bytes;
    ok[static_cast<std::size_t>(r)] = good ? 1 : 0;
    tp.barrier();
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
}

TEST_P(TransportConformance, AllToAllMatchesOnBothBackends) {
  const int world = 4;
  std::vector<int> ok(world, 0);
  run_world(GetParam(), world, [&](Transport& tp) {
    Communicator comm(tp);
    const int r = tp.rank();
    std::vector<Tensor> send;
    for (int dst = 0; dst < world; ++dst) {
      send.push_back(Tensor::full(2, 1, static_cast<float>(10 * r + dst)));
    }
    std::vector<Tensor> got = comm.all_to_all(std::move(send));
    bool good = static_cast<int>(got.size()) == world;
    for (int src = 0; src < world && good; ++src) {
      const auto& t = got[static_cast<std::size_t>(src)];
      good = good && t.numel() == 2 &&
             t(0, 0) == static_cast<float>(10 * src + r) &&
             t(1, 0) == static_cast<float>(10 * src + r);
    }
    ok[static_cast<std::size_t>(r)] = good ? 1 : 0;
    tp.barrier();
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Reliability protocol over faulty links — same FaultDecorator on both
// backends.

// A duplicated frame is discarded by sequence-number matching; the payload
// stream is unaffected.
TEST_P(TransportConformance, DuplicateFrameDiscardedBySequenceNumber) {
  const int world = 2;
  std::vector<int> ok(world, 0);
  run_world(GetParam(), world, [&](Transport& inner) {
    const auto fault = inner.rank() == 0 ? FaultDecorator::Fault::kDuplicateOnce
                                         : FaultDecorator::Fault::kNone;
    FaultDecorator tp(inner, fault);
    Communicator comm(tp);
    if (tp.rank() == 0) {
      comm.send(1, /*tag=*/7, {Tensor::full(1, 2, 3.0f)});  // duplicated
      comm.send(1, /*tag=*/7, {Tensor::full(1, 2, 4.0f)});
      ok[0] = 1;
    } else {
      auto first = comm.recv(0, 7);
      auto second = comm.recv(0, 7);
      ok[1] = (first.at(0)(0, 0) == 3.0f && second.at(0)(0, 0) == 4.0f &&
               comm.duplicates_discarded() == 1)
                  ? 1
                  : 0;
    }
    tp.barrier();
  });
  EXPECT_EQ(ok[0], 1);
  EXPECT_EQ(ok[1], 1);
}

// A corrupted payload fails the checksum and surfaces as a typed error.
TEST_P(TransportConformance, CorruptFrameRejectedByChecksum) {
  const int world = 2;
  std::vector<int> ok(world, 0);
  run_world(GetParam(), world, [&](Transport& inner) {
    const auto fault = inner.rank() == 0 ? FaultDecorator::Fault::kCorruptOnce
                                         : FaultDecorator::Fault::kNone;
    FaultDecorator tp(inner, fault);
    Communicator comm(tp);
    if (tp.rank() == 0) {
      comm.send(1, /*tag=*/7, {Tensor::full(2, 2, 1.5f)});
      ok[0] = 1;
    } else {
      bool threw = false;
      try {
        // burst-lint: allow(no-unchecked-recv) corruption must throw before any payload exists
        comm.recv(0, 7);
      } catch (const CommCorruptionError& e) {
        threw = e.peer() == 0;
      }
      ok[1] = threw ? 1 : 0;
    }
    tp.barrier();
  });
  EXPECT_EQ(ok[0], 1);
  EXPECT_EQ(ok[1], 1);
}

// One dropped delivery is absorbed by a retransmission, invisibly to the
// receiver.
TEST_P(TransportConformance, RetryAbsorbsTransientDrop) {
  const int world = 2;
  std::vector<int> ok(world, 0);
  run_world(GetParam(), world, [&](Transport& inner) {
    const auto fault = inner.rank() == 0 ? FaultDecorator::Fault::kDropOnce
                                         : FaultDecorator::Fault::kNone;
    FaultDecorator tp(inner, fault);
    Communicator comm(tp);
    if (tp.rank() == 0) {
      comm.send(1, /*tag=*/7, {Tensor::full(1, 3, 2.5f)});
      ok[0] = comm.retries() == 1 ? 1 : 0;
    } else {
      auto got = comm.recv(0, 7);
      ok[1] = (got.at(0)(0, 1) == 2.5f && comm.duplicates_discarded() == 0)
                  ? 1
                  : 0;
    }
    tp.barrier();
  });
  EXPECT_EQ(ok[0], 1);
  EXPECT_EQ(ok[1], 1);
}

// A permanently dead link exhausts max_send_attempts and raises
// CommTimeoutError on the sender; no receiver is involved.
TEST_P(TransportConformance, SendGivesUpAfterMaxAttempts) {
  const int world = 2;
  std::vector<int> ok(world, 0);
  run_world(GetParam(), world, [&](Transport& inner) {
    const auto fault = inner.rank() == 0 ? FaultDecorator::Fault::kDropAlways
                                         : FaultDecorator::Fault::kNone;
    FaultDecorator tp(inner, fault);
    Communicator comm(tp);
    if (tp.rank() == 0) {
      bool threw = false;
      try {
        comm.send(1, /*tag=*/7, {Tensor::full(1, 1, 1.0f)});
      } catch (const CommTimeoutError& e) {
        threw = e.peer() == 1;
      }
      const auto attempts = kMaxSendAttempts;
      ok[0] = (threw &&
               comm.retries() == static_cast<std::uint64_t>(attempts - 1))
                  ? 1
                  : 0;
    } else {
      ok[1] = 1;  // nothing was ever delivered; nothing to receive
    }
    tp.barrier();
  });
  EXPECT_EQ(ok[0], 1);
  EXPECT_EQ(ok[1], 1);
}

// An explicit (near-zero) recv deadline fires as CommTimeoutError on both
// clocks: the simulator's link latency exceeds it on the virtual timeline,
// and a socket rank's poll deadline expires on the wall clock.
TEST_P(TransportConformance, ExplicitRecvDeadlineFires) {
  const int world = 2;
  std::vector<int> ok(world, 0);
  run_world(GetParam(), world, [&](Transport& tp) {
    Communicator comm(tp);
    Reliability rel;
    rel.recv_timeout_s = 1e-9;
    comm.set_reliability(rel);
    if (tp.rank() == 0) {
      comm.send(1, /*tag=*/7, {Tensor::full(4, 4, 1.0f)});
      ok[0] = 1;
    } else {
      bool threw = false;
      try {
        // burst-lint: allow(no-unchecked-recv) the deadline must fire before any payload exists
        comm.recv(0, 7);
      } catch (const CommTimeoutError& e) {
        threw = e.peer() == 0;
      }
      ok[1] = threw ? 1 : 0;
    }
    tp.barrier();
  });
  EXPECT_EQ(ok[0], 1);
  EXPECT_EQ(ok[1], 1);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values("sim", "socket"),
                         [](const auto& backend_info) {
                           return std::string(backend_info.param);
                         });

// ---------------------------------------------------------------------------
// Socket-specific smoke: 2-rank world over TCP threads exercising both
// directions of the mesh plus a barrier storm (the barrier control tags must
// never collide with data tags).
TEST(SocketTransportSmoke, TwoRankPingPongAndBarrierStorm) {
  std::vector<int> ok(2, 0);
  run_socket_world(2, [&](Transport& tp) {
    Communicator comm(tp);
    const int me = tp.rank();
    const int peer = 1 - me;
    for (int round = 0; round < 5; ++round) {
      if (me == 0) {
        comm.send(peer, round, {Tensor::full(1, 1, static_cast<float>(round))});
        auto echo = comm.recv(peer, round + 100);
        if (echo.at(0)(0, 0) != static_cast<float>(round + 1)) {
          return;  // leaves ok[0] unset
        }
      } else {
        auto got = comm.recv(peer, round);
        comm.send(peer, round + 100,
                  {Tensor::full(1, 1, got.at(0)(0, 0) + 1.0f)});
      }
      tp.barrier();
    }
    ok[static_cast<std::size_t>(me)] = 1;
  });
  EXPECT_EQ(ok[0], 1);
  EXPECT_EQ(ok[1], 1);
}

// ---------------------------------------------------------------------------
// Frame codec unit tests (backend-independent byte contract).
TEST(FrameCodec, RoundTripsMixedRankTensors) {
  Frame in;
  Tensor v(3);
  v[0] = 1.0f;
  v[1] = -2.5f;
  v[2] = 1024.0f;
  in.payload = tensor::SharedTensors({v, Tensor::full(2, 2, 7.0f)});
  in.wire_bytes = 42;
  const auto bytes = serialize_frame(in);
  Frame out = deserialize_frame(bytes.data(), bytes.size());
  const std::vector<Tensor>& ts = *out.payload;
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(out.wire_bytes, 42u);
  EXPECT_EQ(ts[0].rank(), 1);
  // burst-lint: allow(no-naked-float-eq) the codec round-trip is byte-exact by contract
  EXPECT_EQ(ts[0][1], -2.5f);
  EXPECT_EQ(ts[1].rank(), 2);
  // burst-lint: allow(no-naked-float-eq) the codec round-trip is byte-exact by contract
  EXPECT_EQ(ts[1](1, 1), 7.0f);
}

TEST(FrameCodec, RejectsBadMagic) {
  Frame in;
  in.payload = tensor::SharedTensors({Tensor::full(1, 1, 0.0f)});
  auto bytes = serialize_frame(in);
  bytes[0] ^= 0xFF;
  EXPECT_THROW(deserialize_frame(bytes.data(), bytes.size()), CommError);
}

TEST(FrameCodec, RejectsTruncationAndTrailingBytes) {
  Frame in;
  in.payload = tensor::SharedTensors({Tensor::full(2, 3, 1.0f)});
  auto bytes = serialize_frame(in);
  EXPECT_THROW(deserialize_frame(bytes.data(), bytes.size() - 1), CommError);
  bytes.push_back(0);
  EXPECT_THROW(deserialize_frame(bytes.data(), bytes.size()), CommError);
}

// Hostile headers: every size a frame declares is checked against the bytes
// that remain before anything is allocated.

/// Valid frame header (magic, tensor count, wire bytes) declaring `count`
/// tensors, with no tensor bytes after it.
std::vector<std::uint8_t> frame_header(std::uint32_t count) {
  auto bytes = serialize_frame(Frame{});
  std::memcpy(bytes.data() + sizeof(std::uint32_t), &count, sizeof(count));
  return bytes;
}

template <typename T>
void append(std::vector<std::uint8_t>& bytes, T value) {
  const std::size_t at = bytes.size();
  bytes.resize(at + sizeof(T));
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

/// One-tensor frame holding only a tensor header with `dims`.
std::vector<std::uint8_t> frame_with_dims(std::vector<std::int64_t> dims) {
  auto bytes = frame_header(1);
  append(bytes, static_cast<std::uint32_t>(dims.size()));
  for (const std::int64_t d : dims) {
    append(bytes, d);
  }
  return bytes;
}

TEST(FrameCodec, RejectsHugeTensorCount) {
  const auto bytes = frame_header(0xFFFFFFFFu);
  EXPECT_THROW(deserialize_frame(bytes.data(), bytes.size()), CommError);
}

TEST(FrameCodec, RejectsDimsBeyondPayload) {
  // 2^40 x 2^40 elements wrap to numel 0 if multiplied unchecked.
  const auto bytes = frame_with_dims({1ll << 40, 1ll << 40});
  EXPECT_THROW(deserialize_frame(bytes.data(), bytes.size()), CommError);
}

TEST(FrameCodec, RejectsDimsWhoseByteCountOverflows) {
  // 2^62 floats are 2^64 bytes: the byte count wraps to 0.
  for (const auto& dims : {std::vector<std::int64_t>{1ll << 62},
                           std::vector<std::int64_t>{1ll << 32, 1ll << 30}}) {
    const auto bytes = frame_with_dims(dims);
    EXPECT_THROW(deserialize_frame(bytes.data(), bytes.size()), CommError);
  }
}

TEST(FrameCodec, RejectsNegativeDim) {
  const auto bytes = frame_with_dims({2, -1});
  EXPECT_THROW(deserialize_frame(bytes.data(), bytes.size()), CommError);
}

}  // namespace
}  // namespace burst::comm
