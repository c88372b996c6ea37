#include "core/usp.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>

#include "kernels/rope.hpp"

namespace burst::core {

using comm::Communicator;
using kernels::IndexMap;
using kernels::KernelStats;
using tensor::Tensor;

namespace {

struct Grid {
  int g = 1;
  int gh = 1;   // head-parallel size
  int gr = 1;   // ring size
  int hg = 0;   // this rank's head-group index == ring position
  int hp = 0;   // position within head group
  std::vector<int> head_group;  // ranks sharing my sequence segment
  std::vector<int> ring_group;  // ranks sharing my heads
};

Grid make_grid(const UspConfig& cfg, int world_size, int rank) {
  Grid grid;
  grid.g = world_size;
  grid.gh = cfg.head_parallel;
  if (grid.gh <= 0 || grid.g % grid.gh != 0) {
    throw std::invalid_argument("USP: head_parallel must divide world size");
  }
  if (cfg.num_heads % grid.gh != 0) {
    throw UlyssesConfigError(cfg.num_heads, grid.gh);
  }
  grid.gr = grid.g / grid.gh;
  grid.hg = rank / grid.gh;
  grid.hp = rank % grid.gh;
  for (int j = 0; j < grid.gh; ++j) {
    grid.head_group.push_back(grid.hg * grid.gh + j);
  }
  for (int m = 0; m < grid.gr; ++m) {
    grid.ring_group.push_back(m * grid.gh + grid.hp);
  }
  return grid;
}

DistAttnConfig ring_cfg(const UspConfig& cfg) {
  DistAttnConfig rc;
  rc.mask = cfg.mask;
  rc.scale = cfg.scale;
  rc.balance = cfg.balance;
  rc.backward = cfg.backward;
  rc.overlap = cfg.overlap;
  rc.seq_len = cfg.seq_len;
  return rc;
}

// Head-group all-to-all packing. A device holds per-head tensors of shape
// [n_local, dh]. Before the exchange, heads are packed heads-major per
// destination; after it, each owned head's full segment is assembled by
// concatenating source shards in group order.

// For each of `g` destinations, stacks the local shard of every head that
// destination owns (`heads_per_dev` heads, heads-major).
std::vector<Tensor> pack_by_owner(const std::vector<Tensor>& per_head, int g,
                                  int heads_per_dev) {
  const std::int64_t n_local = per_head.front().rows();
  const std::int64_t dh = per_head.front().cols();
  std::vector<Tensor> send;
  send.reserve(static_cast<std::size_t>(g));
  for (int dst = 0; dst < g; ++dst) {
    Tensor buf(heads_per_dev * n_local, dh);
    for (int t = 0; t < heads_per_dev; ++t) {
      buf.set_rows(t * n_local,
                   per_head[static_cast<std::size_t>(dst * heads_per_dev + t)]);
    }
    send.push_back(std::move(buf));
  }
  return send;
}

// Receive-side inverse: per owned head, concatenates all `g` source shards
// (each `n_local` rows) into the full segment.
std::vector<Tensor> assemble_full_seq(const std::vector<Tensor>& recv, int g,
                                      int heads_per_dev,
                                      std::int64_t n_local) {
  const std::int64_t dh = recv.front().cols();
  std::vector<Tensor> full;
  full.reserve(static_cast<std::size_t>(heads_per_dev));
  for (int t = 0; t < heads_per_dev; ++t) {
    Tensor f(g * n_local, dh);
    for (int src = 0; src < g; ++src) {
      f.set_rows(src * n_local,
                 recv[static_cast<std::size_t>(src)].copy_rows(t * n_local,
                                                               n_local));
    }
    full.push_back(std::move(f));
  }
  return full;
}

// Head-sharded full segments -> per-destination packed buffers (sending
// outputs/gradients back to sequence sharding).
std::vector<Tensor> pack_by_shard(const std::vector<Tensor>& full, int g,
                                  std::int64_t n_local) {
  const int heads_per_dev = static_cast<int>(full.size());
  const std::int64_t dh = full.front().cols();
  std::vector<Tensor> send;
  send.reserve(static_cast<std::size_t>(g));
  for (int dst = 0; dst < g; ++dst) {
    Tensor buf(heads_per_dev * n_local, dh);
    for (int t = 0; t < heads_per_dev; ++t) {
      buf.set_rows(t * n_local,
                   full[static_cast<std::size_t>(t)].copy_rows(dst * n_local,
                                                               n_local));
    }
    send.push_back(std::move(buf));
  }
  return send;
}

// Receive-side inverse of pack_by_shard: per-head local shards indexed by
// global head (source at group position s owns heads [s*hpd, (s+1)*hpd)).
std::vector<Tensor> unpack_to_heads(const std::vector<Tensor>& recv, int g,
                                    int heads_per_dev, std::int64_t n_local) {
  std::vector<Tensor> heads(static_cast<std::size_t>(g * heads_per_dev));
  for (int src = 0; src < g; ++src) {
    for (int t = 0; t < heads_per_dev; ++t) {
      heads[static_cast<std::size_t>(src * heads_per_dev + t)] =
          recv[static_cast<std::size_t>(src)].copy_rows(t * n_local, n_local);
    }
  }
  return heads;
}

}  // namespace

IndexMap usp_local_index_map(const UspConfig& cfg, int world_size, int rank) {
  Grid grid = make_grid(cfg, world_size, rank);
  const std::int64_t n_local = cfg.seq_len / grid.g;
  IndexMap ring_map =
      device_index_map(cfg.balance, cfg.seq_len, grid.gr, grid.hg);
  return submap(ring_map, grid.hp * n_local, n_local);
}

std::vector<Tensor> usp_forward(Communicator& comm, const UspConfig& cfg,
                                const std::vector<Tensor>& q,
                                const std::vector<Tensor>& k,
                                const std::vector<Tensor>& v, UspSaved* saved,
                                KernelStats* stats) {
  Grid grid = make_grid(cfg, comm.world_size(), comm.rank());
  const int hl = cfg.num_heads / grid.gh;  // heads per device after exchange
  assert(static_cast<int>(q.size()) == cfg.num_heads);
  const std::int64_t n_local = q.front().rows();
  assert(n_local * grid.g == cfg.seq_len);

  // Stage 1: Ulysses all-to-all inside the head group.
  auto qr = comm.all_to_all_group(grid.head_group, pack_by_owner(q, grid.gh, hl));
  auto kr = comm.all_to_all_group(grid.head_group, pack_by_owner(k, grid.gh, hl));
  auto vr = comm.all_to_all_group(grid.head_group, pack_by_owner(v, grid.gh, hl));
  LocalHeads heads{assemble_full_seq(qr, grid.gh, hl, n_local),
                   assemble_full_seq(kr, grid.gh, hl, n_local),
                   assemble_full_seq(vr, grid.gh, hl, n_local)};

  // Stage 2: ring attention across the ring group, every owned head at once.
  const SweepRoute route = SweepRoute::flat(comm::RingOrder(grid.ring_group));
  HeadsResult full =
      dist_attention_forward(comm, route, ring_cfg(cfg), heads, stats);

  // Stage 3: reverse all-to-all back to sequence sharding.
  auto out_recv = comm.all_to_all_group(
      grid.head_group, pack_by_shard(full.o, grid.gh, n_local));
  std::vector<Tensor> o_local =
      unpack_to_heads(out_recv, grid.gh, hl, n_local);

  if (saved != nullptr) {
    saved->heads = std::move(heads);
    saved->out = std::move(full);
  }
  return o_local;
}

HeadsGrads usp_backward(Communicator& comm, const UspConfig& cfg,
                        const UspSaved& saved,
                        const std::vector<Tensor>& d_out, KernelStats* stats,
                        bool rope) {
  Grid grid = make_grid(cfg, comm.world_size(), comm.rank());
  const int hl = cfg.num_heads / grid.gh;
  const std::int64_t n_local = d_out.front().rows();

  auto dr = comm.all_to_all_group(grid.head_group,
                                  pack_by_owner(d_out, grid.gh, hl));
  std::vector<Tensor> do_full = assemble_full_seq(dr, grid.gh, hl, n_local);

  const SweepRoute route = SweepRoute::flat(comm::RingOrder(grid.ring_group));
  const DistAttnConfig rc = ring_cfg(cfg);
  std::unique_ptr<const kernels::RopeTable> table;
  if (rope) {
    table = std::make_unique<kernels::RopeTable>(
        route_index_map(route, rc, comm.rank()), saved.heads.q.front().cols());
  }
  const HeadsGrads full =
      dist_attention_backward(comm, route, rc, saved.heads, saved.out,
                              std::move(do_full), stats, table.get());

  HeadsGrads out;
  auto dq_recv = comm.all_to_all_group(
      grid.head_group, pack_by_shard(full.dq, grid.gh, n_local));
  out.dq = unpack_to_heads(dq_recv, grid.gh, hl, n_local);
  auto dk_recv = comm.all_to_all_group(
      grid.head_group, pack_by_shard(full.dk, grid.gh, n_local));
  out.dk = unpack_to_heads(dk_recv, grid.gh, hl, n_local);
  auto dv_recv = comm.all_to_all_group(
      grid.head_group, pack_by_shard(full.dv, grid.gh, n_local));
  out.dv = unpack_to_heads(dv_recv, grid.gh, hl, n_local);
  return out;
}

}  // namespace burst::core
