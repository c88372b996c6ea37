#include "comm/socket_transport.hpp"

// burst-lint: allow-file(no-wallclock) the socket backend IS the repo's wall
// clock boundary: real TCP ranks time out and report now() on real time.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "comm/errors.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"

namespace burst::comm {

namespace {

constexpr std::uint32_t kWireMagic = 0x4253434bu;  // "BSCK"
constexpr std::uint32_t kRegMagic = 0x42524e44u;   // "BRND"
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;
// Control tags below any tag the protocol layer hands out (Communicator tags
// are non-negative).
constexpr int kBarrierArriveTag = -2;
constexpr int kBarrierReleaseTag = -3;
/// How long workers keep re-dialing a not-yet-listening peer, for the
/// rendezvous and for the mesh build.
constexpr double kConnectTimeoutS = 10.0;
/// Barrier rendezvous deadline (peers may be mid-compute, so it is more
/// generous than a plain recv).
constexpr double kBarrierTimeoutS = 60.0;

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw CommError(what + ": " + std::strerror(errno));
}

/// Per-message framing on the TCP stream. Fixed layout, no padding
/// (4+4+8+8 = 24 bytes); both ends run on the same host architecture.
struct WireHeader {
  std::uint32_t magic = 0;
  std::int32_t tag = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t wire_bytes = 0;
};
static_assert(sizeof(WireHeader) == 24, "WireHeader must be packed");

/// Rendezvous registration: worker -> root.
struct RegMsg {
  std::uint32_t magic = 0;
  std::int32_t rank = -1;
  std::uint32_t ipv4 = 0;
  std::uint32_t port = 0;
};
static_assert(sizeof(RegMsg) == 16, "RegMsg must be packed");

void write_all(int fd, const void* buf, std::size_t n, int peer) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        throw sim::PeerFailedError(peer);
      }
      throw_errno("socket send");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Reads exactly `n` bytes. `deadline` is an absolute steady-clock time in
/// seconds (+inf blocks indefinitely); expiry throws CommTimeoutError. EOF —
/// the peer closed or died — throws sim::PeerFailedError so supervisors can
/// attribute the stall, matching the simulator's abort semantics.
void read_all(int fd, void* buf, std::size_t n, int peer, double deadline) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (n > 0) {
    if (std::isfinite(deadline)) {
      const double remaining = deadline - steady_seconds();
      if (remaining <= 0.0) {
        throw CommTimeoutError(peer, "socket recv deadline exceeded");
      }
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int wait_ms =
          1 + static_cast<int>(std::min(remaining * 1e3, 60e3));
      const int pr = ::poll(&pfd, 1, wait_ms);
      if (pr < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw_errno("socket poll");
      }
      if (pr == 0) {
        continue;  // re-check the deadline
      }
    }
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == ECONNRESET) {
        throw sim::PeerFailedError(peer);
      }
      throw_errno("socket read");
    }
    if (r == 0) {
      throw sim::PeerFailedError(peer);
    }
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

/// Binds ipv4:port (0 = loopback / OS-assigned) and listens. Reports the
/// bound port through *bound_port when asked (the port-0 case).
int make_listener(std::uint32_t ipv4, std::uint16_t port,
                  std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw_errno("socket");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ipv4 != 0 ? ipv4 : htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("bind");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    throw_errno("listen");
  }
  if (bound_port != nullptr) {
    sockaddr_in got{};
    socklen_t len = sizeof(got);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) < 0) {
      ::close(fd);
      throw_errno("getsockname");
    }
    *bound_port = ntohs(got.sin_port);
  }
  return fd;
}

int accept_with_deadline(int listen_fd, double deadline, const char* what) {
  for (;;) {
    const double remaining = deadline - steady_seconds();
    if (remaining <= 0.0) {
      throw CommTimeoutError(
          -1, std::string(what) + ": accept deadline exceeded");
    }
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int wait_ms = 1 + static_cast<int>(std::min(remaining * 1e3, 60e3));
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("accept poll");
    }
    if (pr == 0) {
      continue;
    }
    const int c = ::accept(listen_fd, nullptr, nullptr);
    if (c < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("accept");
    }
    return c;
  }
}

/// Dials ipv4:port (0 = loopback), retrying while the peer's listener may
/// not be up yet. Throws CommTimeoutError(peer) after timeout_s.
int dial(std::uint32_t ipv4, std::uint16_t port, double timeout_s, int peer) {
  const double deadline = steady_seconds() + timeout_s;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      throw_errno("socket");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = ipv4 != 0 ? ipv4 : htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    if (steady_seconds() >= deadline) {
      throw CommTimeoutError(peer, "connect to rank " + std::to_string(peer) +
                                       " timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

int SocketTransport::bind_rendezvous_listener(std::uint16_t* port_out) {
  return make_listener(0, 0, port_out);
}

SocketTransport::SocketTransport(SocketTransportConfig cfg)
    : cfg_(std::move(cfg)), mem_(cfg_.rank) {
  if (cfg_.rank < 0 || cfg_.world_size <= 0 ||
      cfg_.rank >= cfg_.world_size) {
    throw CommError("SocketTransport: invalid rank " +
                    std::to_string(cfg_.rank) + " / world_size " +
                    std::to_string(cfg_.world_size));
  }
  topo_ = sim::Topology::single_node(cfg_.world_size);
  start_time_ = steady_seconds();
  peer_fd_.assign(static_cast<std::size_t>(cfg_.world_size), -1);
  table_.assign(static_cast<std::size_t>(cfg_.world_size), PeerAddr{});

  std::uint16_t data_port = 0;
  listen_fd_ = make_listener(0, 0, &data_port);
  rendezvous(data_port);
  build_mesh();
  for (const int fd : peer_fd_) {
    if (fd >= 0) {
      set_nodelay(fd);
    }
  }

  if (cfg_.metrics != nullptr) {
    const std::string r = std::to_string(cfg_.rank);
    obs_bytes_intra_ = &cfg_.metrics->counter(obs::labeled(
        "comm.transport.bytes",
        {{"transport", kind()}, {"link", "intra"}, {"rank", r}}));
    obs_bytes_inter_ = &cfg_.metrics->counter(obs::labeled(
        "comm.transport.bytes",
        {{"transport", kind()}, {"link", "inter"}, {"rank", r}}));
    obs_msgs_intra_ = &cfg_.metrics->counter(obs::labeled(
        "comm.transport.msgs",
        {{"transport", kind()}, {"link", "intra"}, {"rank", r}}));
    obs_msgs_inter_ = &cfg_.metrics->counter(obs::labeled(
        "comm.transport.msgs",
        {{"transport", kind()}, {"link", "inter"}, {"rank", r}}));
  }
}

SocketTransport::~SocketTransport() {
  for (const int fd : peer_fd_) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
}

void SocketTransport::rendezvous(std::uint16_t data_port) {
  const int world = cfg_.world_size;
  table_[static_cast<std::size_t>(cfg_.rank)] = PeerAddr{0, data_port};
  if (world == 1) {
    if (cfg_.rendezvous_listen_fd >= 0) {
      ::close(cfg_.rendezvous_listen_fd);
    }
    return;
  }
  const double deadline = steady_seconds() + kConnectTimeoutS;

  if (cfg_.rank == 0) {
    const int rfd = cfg_.rendezvous_listen_fd >= 0
                        ? cfg_.rendezvous_listen_fd
                        : make_listener(cfg_.root.ipv4, cfg_.root.port,
                                        nullptr);
    std::vector<int> conns(static_cast<std::size_t>(world), -1);
    try {
      for (int i = 0; i < world - 1; ++i) {
        const int c = accept_with_deadline(rfd, deadline, "rendezvous");
        RegMsg reg;
        read_all(c, &reg, sizeof(reg), -1, deadline);
        const std::size_t r = static_cast<std::size_t>(reg.rank);
        if (reg.magic != kRegMagic || reg.rank <= 0 || reg.rank >= world ||
            conns[r] != -1) {
          ::close(c);
          throw CommError("rendezvous: bad registration");
        }
        table_[r] =
            PeerAddr{reg.ipv4, static_cast<std::uint16_t>(reg.port)};
        conns[r] = c;
      }
      // Everyone registered: broadcast the rank -> endpoint table.
      std::vector<std::uint8_t> reply;
      const std::uint32_t magic = kRegMagic;
      const auto* mp = reinterpret_cast<const std::uint8_t*>(&magic);
      reply.insert(reply.end(), mp, mp + sizeof(magic));
      for (const PeerAddr& a : table_) {
        RegMsg entry{kRegMagic, 0, a.ipv4, a.port};
        const auto* ep = reinterpret_cast<const std::uint8_t*>(&entry);
        reply.insert(reply.end(), ep, ep + sizeof(entry));
      }
      for (int r = 1; r < world; ++r) {
        write_all(conns[static_cast<std::size_t>(r)], reply.data(),
                  reply.size(), r);
      }
    } catch (...) {
      for (const int c : conns) {
        if (c >= 0) {
          ::close(c);
        }
      }
      ::close(rfd);
      throw;
    }
    for (const int c : conns) {
      if (c >= 0) {
        ::close(c);
      }
    }
    ::close(rfd);
    return;
  }

  // Worker: register with the root, receive the table.
  const int c = dial(cfg_.root.ipv4, cfg_.root.port, kConnectTimeoutS,
                     /*peer=*/0);
  try {
    RegMsg reg{kRegMagic, cfg_.rank, 0, data_port};
    write_all(c, &reg, sizeof(reg), /*peer=*/0);
    std::uint32_t magic = 0;
    read_all(c, &magic, sizeof(magic), /*peer=*/0, deadline);
    if (magic != kRegMagic) {
      throw CommError("rendezvous: bad table reply");
    }
    for (int r = 0; r < world; ++r) {
      RegMsg entry;
      read_all(c, &entry, sizeof(entry), /*peer=*/0, deadline);
      if (entry.magic != kRegMagic) {
        throw CommError("rendezvous: bad table entry");
      }
      table_[static_cast<std::size_t>(r)] =
          PeerAddr{entry.ipv4, static_cast<std::uint16_t>(entry.port)};
    }
  } catch (...) {
    ::close(c);
    throw;
  }
  ::close(c);
}

void SocketTransport::build_mesh() {
  const int me = cfg_.rank;
  const int world = cfg_.world_size;
  const int inbound = world - 1 - me;  // every rank j > me dials us
  const double deadline = steady_seconds() + kConnectTimeoutS;

  // The acceptor thread and the dialing main thread write disjoint,
  // pre-sized slots of peer_fd_ (j > me vs p < me), so the only
  // synchronization needed is the join.
  std::exception_ptr accept_error;
  std::thread acceptor;
  if (inbound > 0) {
    acceptor = std::thread([this, me, world, inbound, deadline,
                            &accept_error] {
      try {
        for (int i = 0; i < inbound; ++i) {
          const int c = accept_with_deadline(listen_fd_, deadline, "mesh");
          std::uint32_t hello = 0;
          try {
            read_all(c, &hello, sizeof(hello), -1, deadline);
          } catch (...) {
            ::close(c);
            throw;
          }
          const int peer = static_cast<int>(hello);
          if (peer <= me || peer >= world ||
              peer_fd_[static_cast<std::size_t>(peer)] != -1) {
            ::close(c);
            throw CommError("mesh: bad hello from peer");
          }
          peer_fd_[static_cast<std::size_t>(peer)] = c;
        }
      } catch (...) {
        accept_error = std::current_exception();
      }
    });
  }

  try {
    for (int p = 0; p < me; ++p) {
      const PeerAddr& a = table_[static_cast<std::size_t>(p)];
      const int c = dial(a.ipv4, a.port, kConnectTimeoutS, p);
      const auto hello = static_cast<std::uint32_t>(me);
      try {
        write_all(c, &hello, sizeof(hello), p);
      } catch (...) {
        ::close(c);
        throw;
      }
      peer_fd_[static_cast<std::size_t>(p)] = c;
    }
  } catch (...) {
    if (acceptor.joinable()) {
      acceptor.join();
    }
    throw;
  }
  if (acceptor.joinable()) {
    acceptor.join();
  }
  if (accept_error) {
    std::rethrow_exception(accept_error);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

double SocketTransport::now(int stream) const {
  (void)stream;  // one wall-clock timeline for every stream
  return steady_seconds() - start_time_;
}

double SocketTransport::elapsed() const { return now(sim::kCompute); }

void SocketTransport::busy(double seconds, int stream, const char* label) {
  (void)stream;
  (void)label;
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

void SocketTransport::account_send(int dst, std::uint64_t wire_bytes) {
  bytes_sent_ += wire_bytes;
  if (cfg_.metrics == nullptr) {
    return;
  }
  const bool intra = topo_.same_node(cfg_.rank, dst);
  (intra ? obs_bytes_intra_ : obs_bytes_inter_)->add(wire_bytes);
  (intra ? obs_msgs_intra_ : obs_msgs_inter_)->add(1);
}

bool SocketTransport::send_bytes(const Endpoint& dst, int tag,
                                 std::vector<std::uint8_t> bytes,
                                 std::uint64_t wire_bytes, int stream) {
  (void)stream;  // a socket rank has one wire; streams are a clock concept
  const int peer = dst.rank;
  if (peer < 0 || peer >= cfg_.world_size) {
    throw CommError("send to invalid rank " + std::to_string(peer));
  }
  if (peer == cfg_.rank) {
    // Loopback without touching the kernel: straight to the inbox.
    inbox_[{peer, tag}].push_back(std::move(bytes));
    account_send(peer, wire_bytes);
    return true;
  }
  const int fd = peer_fd_[static_cast<std::size_t>(peer)];
  if (fd < 0) {
    throw CommError("no connection to rank " + std::to_string(peer));
  }
  WireHeader h{kWireMagic, static_cast<std::int32_t>(tag),
               static_cast<std::uint64_t>(bytes.size()), wire_bytes};
  write_all(fd, &h, sizeof(h), peer);
  if (!bytes.empty()) {
    write_all(fd, bytes.data(), bytes.size(), peer);
  }
  account_send(peer, wire_bytes);
  return true;  // TCP delivery is reliable; there is nothing to retry
}

void SocketTransport::pump_peer(int src, double deadline) {
  if (src == cfg_.rank) {
    throw CommError("recv from self with an empty inbox");
  }
  const int fd = peer_fd_[static_cast<std::size_t>(src)];
  if (fd < 0) {
    throw CommError("no connection to rank " + std::to_string(src));
  }
  WireHeader h;
  read_all(fd, &h, sizeof(h), src, deadline);
  if (h.magic != kWireMagic) {
    throw CommError("socket frame from rank " + std::to_string(src) +
                    ": bad magic");
  }
  if (h.payload_size > kMaxPayloadBytes) {
    throw CommError("socket frame from rank " + std::to_string(src) +
                    ": oversized payload");
  }
  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(h.payload_size));
  if (!payload.empty()) {
    read_all(fd, payload.data(), payload.size(), src, deadline);
  }
  inbox_[{src, static_cast<int>(h.tag)}].push_back(std::move(payload));
}

std::vector<std::uint8_t> SocketTransport::recv_bytes(const Endpoint& src,
                                                      int tag, int stream,
                                                      double timeout_s) {
  (void)stream;
  const int peer = src.rank;
  if (peer < 0 || peer >= cfg_.world_size) {
    throw CommError("recv from invalid rank " + std::to_string(peer));
  }
  const double effective =
      timeout_s < 0.0 ? cfg_.recv_timeout_s : timeout_s;
  const double deadline = std::isfinite(effective)
                              ? steady_seconds() + effective
                              : std::numeric_limits<double>::infinity();
  const std::pair<int, int> key{peer, tag};
  for (;;) {
    const auto it = inbox_.find(key);
    if (it != inbox_.end() && !it->second.empty()) {
      std::vector<std::uint8_t> bytes = std::move(it->second.front());
      it->second.pop_front();
      return bytes;
    }
    // Nothing buffered for this tag yet: read the next message off the
    // peer's stream (it may carry a different tag; that lands in its own
    // inbox slot and the loop tries again).
    pump_peer(peer, deadline);
  }
}

void SocketTransport::barrier() {
  const int world = cfg_.world_size;
  if (world == 1) {
    return;
  }
  // Flat root-gather release. TCP's per-peer ordering plus the FIFO inbox
  // make generations unambiguous without sequence numbers.
  if (cfg_.rank == 0) {
    for (int r = 1; r < world; ++r) {
      const std::vector<std::uint8_t> arrive = recv_bytes(
          Endpoint::of(r), kBarrierArriveTag, sim::kIntraComm,
          kBarrierTimeoutS);
      (void)arrive;
    }
    for (int r = 1; r < world; ++r) {
      send_bytes(Endpoint::of(r), kBarrierReleaseTag, {}, 0,
                 sim::kIntraComm);
    }
  } else {
    send_bytes(Endpoint::of(0), kBarrierArriveTag, {}, 0, sim::kIntraComm);
    const std::vector<std::uint8_t> release = recv_bytes(
        Endpoint::of(0), kBarrierReleaseTag, sim::kIntraComm,
        kBarrierTimeoutS);
    (void)release;
  }
}

}  // namespace burst::comm
