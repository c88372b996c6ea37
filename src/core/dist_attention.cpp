#include "core/dist_attention.hpp"

#include <cassert>
#include <iterator>
#include <limits>

#include "kernels/rope.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/phase_metrics.hpp"
#include "tensor/ops.hpp"

namespace burst::core {

using comm::Communicator;
using kernels::AttnResult;
using kernels::IndexMap;
using kernels::KernelStats;
using tensor::Tensor;

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Position of `rank` within the route (0..G-1).
int route_position(const SweepRoute& route, int rank) {
  const auto& ranks = route.ranks();
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (ranks[i] == rank) {
      return static_cast<int>(i);
    }
  }
  assert(false);
  return -1;
}

void charge(comm::Communicator& comm, const KernelStats& st,
            KernelStats* out) {
  comm.transport().compute(static_cast<double>(st.flops));
  if (out != nullptr) {
    out->flops += st.flops;
    out->tiles_computed += st.tiles_computed;
    out->tiles_skipped += st.tiles_skipped;
  }
}

// Runs `fn(h, stats_h)` for every head under the deterministic
// parallel_for, one chunk per head, then charges the heads' KernelStats in
// head order after the join.
template <class Fn>
void each_head(Communicator& comm, std::size_t heads, KernelStats* stats,
               const Fn& fn) {
  std::vector<KernelStats> st(heads);
  parallel::parallel_for(0, heads, 1, [&](std::size_t h0, std::size_t h1) {
    for (std::size_t h = h0; h < h1; ++h) {
      fn(h, st[h]);
    }
  });
  for (const KernelStats& s : st) {
    charge(comm, s, stats);
  }
}

// Appends `src` to `dst`: copied, or moved from an rvalue.
void append(std::vector<Tensor>& dst, const std::vector<Tensor>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}
void append(std::vector<Tensor>& dst, std::vector<Tensor>&& src) {
  dst.insert(dst.end(), std::make_move_iterator(src.begin()),
             std::make_move_iterator(src.end()));
}

std::vector<Tensor> zeros_like(const std::vector<Tensor>& ts) {
  std::vector<Tensor> out;
  for (const Tensor& t : ts) {
    out.push_back(Tensor::zeros(t.rows(), t.cols()));
  }
  return out;
}

}  // namespace

IndexMap route_index_map(const SweepRoute& route, const DistAttnConfig& cfg,
                         int rank) {
  return device_index_map(cfg.balance, cfg.seq_len, route.size(),
                          route_position(route, rank));
}

HeadsResult dist_attention_forward(Communicator& comm, const SweepRoute& route,
                                   const DistAttnConfig& cfg,
                                   const LocalHeads& local, KernelStats* stats,
                                   const IndexMap* q_rows) {
  sim::ScopedPhaseMetrics phase(comm.transport(), "attn.forward");
  const IndexMap qmap = q_rows != nullptr
                            ? *q_rows
                            : route_index_map(route, cfg, comm.rank());
  const std::size_t heads = local.q.size();
  const std::size_t kv_heads = local.k.size();
  const std::size_t group = heads / kv_heads;

  HeadsResult out;
  out.o = zeros_like(local.q);
  for (const Tensor& q : local.q) {
    assert(q.rows() == qmap.size());
    out.lse.emplace_back(q.rows());
    out.lse.back().fill(kNegInf);
  }
  // The own shard is read in place, so its K/V are copied into a bundle only
  // when the bundle travels.
  std::vector<Tensor> bundle;
  if (route.steps() > 1) {
    append(bundle, local.k);
    append(bundle, local.v);
  }
  ring_sweep_activation(
      comm, route, SweepOptions{cfg.overlap, cfg.tag_base},
      std::move(bundle), [&](const std::vector<Tensor>& kv, int origin) {
        if (qmap.size() == 0) {
          return;  // nothing to compute; we only feed the ring
        }
        const IndexMap kmap = route_index_map(route, cfg, origin);
        const bool own = origin == comm.rank();
        each_head(comm, heads, stats, [&](std::size_t h, KernelStats& st) {
          const std::size_t kvh = h / group;
          kernels::flash_forward_partial(
              local.q[h], qmap, own ? local.k[kvh] : kv[kvh],
              own ? local.v[kvh] : kv[kv_heads + kvh], kmap, cfg.mask,
              cfg.scale, out.o[h], out.lse[h], &st);
        });
      });
  return out;
}

namespace {

// The backward sweeps fill `dq` (one per query head) and return the dK
// parts followed by the dV parts: one per K/V head (Ring) or one per query
// head (Burst).

// Algorithm 1: circulate each K/V head's (K, V) as immutable parts and
// (∇K, ∇V) as accumulators; D is recomputed from (∇O, O) at every visit, as
// written. A group's query heads add their contributions, in head order,
// into the one their K/V head's accumulator takes at each visit.
std::vector<Tensor> backward_ring(Communicator& comm, const SweepRoute& route,
                                  const DistAttnConfig& cfg,
                                  const LocalHeads& local,
                                  const HeadsResult& fwd,
                                  const std::vector<Tensor>& d_out,
                                  KernelStats* stats, std::vector<Tensor>& dq) {
  const IndexMap qmap = route_index_map(route, cfg, comm.rank());
  const std::size_t heads = local.q.size();
  const std::size_t kv_heads = local.k.size();
  const std::size_t group = heads / kv_heads;

  dq = zeros_like(local.q);
  std::vector<Tensor> bundle;
  append(bundle, local.k);
  append(bundle, local.v);
  std::vector<Tensor> acc = zeros_like(bundle);
  return ring_sweep_gradient(
      comm, route, SweepOptions{cfg.overlap, cfg.tag_base},
      std::move(bundle), std::move(acc),
      [&](const std::vector<Tensor>& kv, int origin) {
        const IndexMap kmap = route_index_map(route, cfg, origin);
        // dK of every query head, then dV of every query head.
        std::vector<Tensor> part(2 * heads);
        each_head(comm, heads, stats, [&](std::size_t h, KernelStats& st) {
          const Tensor& k = kv[h / group];
          const Tensor& v = kv[kv_heads + h / group];
          // Algorithm 1 line 10: D_i recomputed inside every ring step —
          // the redundant work BurstAttention eliminates. Charged
          // accordingly.
          const Tensor dvec = kernels::attention_dvec(d_out[h], fwd.o[h]);
          st.flops += static_cast<std::uint64_t>(2 * d_out[h].numel());
          part[h] = Tensor::zeros(k.rows(), k.cols());
          part[heads + h] = Tensor::zeros(v.rows(), v.cols());
          kernels::flash_backward_partial(
              local.q[h], qmap, k, v, kmap, cfg.mask, cfg.scale, d_out[h],
              fwd.lse[h], dvec, dq[h], part[h], part[heads + h], &st);
        });
        // Part p belongs to slot p / group: dK parts to the dK slots, dV
        // parts to the dV slots.
        std::vector<Tensor> contrib(2 * kv_heads);
        for (std::size_t p = 0; p < part.size(); ++p) {
          if (p % group == 0) {
            contrib[p / group] = std::move(part[p]);
          } else {
            tensor::add_inplace(contrib[p / group], part[p]);
          }
        }
        return contrib;
      });
}

// Algorithm 2: keep K/V local, circulate (Q, ∇O, Lse, D) of every query
// head immutably, with a ∇Q accumulator per query head. D is computed once,
// up front (line 2).
std::vector<Tensor> backward_burst(Communicator& comm, const SweepRoute& route,
                                   const DistAttnConfig& cfg,
                                   const LocalHeads& local,
                                   const HeadsResult& fwd,
                                   std::vector<Tensor> d_out,
                                   KernelStats* stats,
                                   std::vector<Tensor>& dq) {
  const IndexMap kmap = route_index_map(route, cfg, comm.rank());
  const std::size_t heads = local.q.size();
  const std::size_t group = heads / local.k.size();

  std::vector<Tensor> part(2 * heads);
  for (std::size_t h = 0; h < heads; ++h) {
    part[h] = Tensor::zeros(kmap.size(), local.k[h / group].cols());
    part[heads + h] = Tensor::zeros(kmap.size(), local.v[h / group].cols());
  }

  // D_i once per device and head (Algorithm 2 line 2), charged before the
  // sweep starts.
  std::vector<Tensor> dvec(heads);
  parallel::parallel_for(0, heads, 1, [&](std::size_t h0, std::size_t h1) {
    for (std::size_t h = h0; h < h1; ++h) {
      dvec[h] = kernels::attention_dvec(d_out[h], fwd.o[h]);
    }
  });
  for (const Tensor& t : d_out) {
    KernelStats st;
    st.flops = static_cast<std::uint64_t>(2 * t.numel());
    charge(comm, st, stats);
  }

  // Q, dO, Lse and D of every query head.
  std::vector<Tensor> bundle;
  append(bundle, local.q);
  append(bundle, std::move(d_out));
  append(bundle, fwd.lse);
  append(bundle, std::move(dvec));
  dq = ring_sweep_gradient(
      comm, route, SweepOptions{cfg.overlap, cfg.tag_base},
      std::move(bundle), zeros_like(local.q),
      [&](const std::vector<Tensor>& imm, int origin) {
        const IndexMap qmap_j = route_index_map(route, cfg, origin);
        std::vector<Tensor> dq_j(heads);
        each_head(comm, heads, stats, [&](std::size_t h, KernelStats& st) {
          const Tensor& q_j = imm[h];
          dq_j[h] = Tensor::zeros(q_j.rows(), q_j.cols());
          kernels::flash_backward_partial(
              q_j, qmap_j, local.k[h / group], local.v[h / group], kmap,
              cfg.mask, cfg.scale, imm[heads + h], imm[2 * heads + h],
              imm[3 * heads + h], dq_j[h], part[h], part[heads + h], &st);
        });
        return dq_j;
      });
  return part;
}

}  // namespace

HeadsGrads dist_attention_backward(Communicator& comm, const SweepRoute& route,
                                   const DistAttnConfig& cfg,
                                   const LocalHeads& local,
                                   const HeadsResult& fwd,
                                   std::vector<Tensor> d_out,
                                   KernelStats* stats,
                                   const kernels::RopeTable* rope) {
  HeadsGrads out;
  std::vector<Tensor> part;
  {
    sim::ScopedPhaseMetrics phase(comm.transport(), "attn.backward");
    part = cfg.backward == BackwardComm::kRing
               ? backward_ring(comm, route, cfg, local, fwd, d_out, stats,
                               out.dq)
               : backward_burst(comm, route, cfg, local, fwd, std::move(d_out),
                                stats, out.dq);
  }
  // A chunk per K/V head rotates its query heads' dQ and its dK parts back,
  // then sums its parts in ascending order.
  const std::size_t kv_heads = local.k.size();
  const std::size_t group = out.dq.size() / kv_heads;
  const std::size_t per_kv = part.size() / 2 / kv_heads;
  assert(rope == nullptr || rope->rows() == local.q.front().rows());
  out.dk.resize(kv_heads);
  out.dv.resize(kv_heads);
  parallel::parallel_for(0, kv_heads, 1, [&](std::size_t k0, std::size_t k1) {
    for (std::size_t kvh = k0; kvh < k1; ++kvh) {
      const std::size_t dk0 = kvh * per_kv;
      const std::size_t dv0 = (kv_heads + kvh) * per_kv;
      out.dk[kvh] = Tensor::zeros(part[dk0].rows(), part[dk0].cols());
      out.dv[kvh] = Tensor::zeros(part[dv0].rows(), part[dv0].cols());
      for (std::size_t i = 0; i < per_kv; ++i) {
        if (rope != nullptr) {
          kernels::apply_rope_inverse_inplace(part[dk0 + i], *rope);
        }
        tensor::add_inplace(out.dk[kvh], part[dk0 + i]);
        tensor::add_inplace(out.dv[kvh], part[dv0 + i]);
      }
      for (std::size_t h = kvh * group;
           rope != nullptr && h < (kvh + 1) * group; ++h) {
        kernels::apply_rope_inverse_inplace(out.dq[h], *rope);
      }
    }
  });
  return out;
}

AttnResult dist_attention_forward(Communicator& comm, const SweepRoute& route,
                                  const DistAttnConfig& cfg,
                                  const LocalQKV& local, KernelStats* stats) {
  HeadsResult r = dist_attention_forward(
      comm, route, cfg, LocalHeads{{local.q}, {local.k}, {local.v}}, stats);
  return {std::move(r.o[0]), std::move(r.lse[0])};
}

LocalGrads dist_attention_backward(Communicator& comm, const SweepRoute& route,
                                   const DistAttnConfig& cfg,
                                   const LocalQKV& local, const AttnResult& fwd,
                                   const Tensor& d_out, KernelStats* stats) {
  HeadsGrads g = dist_attention_backward(
      comm, route, cfg, LocalHeads{{local.q}, {local.k}, {local.v}},
      HeadsResult{{fwd.o}, {fwd.lse}}, {d_out}, stats);
  return {std::move(g.dq[0]), std::move(g.dk[0]), std::move(g.dv[0])};
}

}  // namespace burst::core
