#include "model/dist_model.hpp"

#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/sim_transport.hpp"
#include "core/sweep.hpp"
#include "core/usp.hpp"
#include "kernels/flash_attention.hpp"
#include "kernels/lm_head.hpp"
#include "kernels/rope.hpp"
#include "model/block.hpp"
#include "parallel/thread_pool.hpp"
// burst-lint: allow(no-direct-cluster) the one-device entry points host their cluster
#include "sim/cluster.hpp"
#include "sim/phase_metrics.hpp"
#include "tensor/ops.hpp"

namespace burst::model {

using core::Balance;
using core::CkptStrategy;
using core::DistAttnConfig;
using core::SweepRoute;
using kernels::IndexMap;
using kernels::MaskSpec;
using tensor::Tensor;

namespace {

// Model dimensions enter the simulated-FLOP arithmetic as doubles.
inline double fd(std::int64_t v) { return static_cast<double>(v); }

bool is_head_parallel(const DistTrainConfig& cfg) {
  return cfg.impl == AttnImpl::kUlysses || cfg.impl == AttnImpl::kUsp;
}

// The USP grid a head-parallel impl runs on. Ulysses is its corner with one
// head group spanning the world: rings of one member, contiguous shards.
core::UspConfig usp_config(const DistTrainConfig& cfg, std::int64_t n,
                           int world_size) {
  core::UspConfig uc;
  uc.mask = cfg.mask;
  uc.seq_len = n;
  uc.num_heads = static_cast<int>(cfg.model.heads);
  uc.head_parallel = head_group_size(cfg, world_size);
  uc.balance = cfg.impl == AttnImpl::kUlysses ? Balance::kContiguous
                                              : cfg.balance;
  uc.backward = core::BackwardComm::kRing;
  uc.overlap = cfg.overlap;
  return uc;
}

// Approximate "as-if bf16" byte count for memory accounting.
std::uint64_t bf16_bytes(const Tensor& t) {
  return static_cast<std::uint64_t>(t.numel()) * 2;
}

// Per-head Q/K/V of the distributed block.
struct Heads {
  std::vector<Tensor> q, k, v;
};

// Everything a layer may keep between forward and backward. Which fields are
// populated depends on the checkpoint strategy / attention impl.
struct LayerCache {
  Tensor x_in;  // always stored (the gradient-checkpoint boundary)
  // kNone: full serial-style cache.
  bool full = false;
  Heads heads;
  BlockActs acts;
  // Attention outputs (per head): all rows (SelectivePP / kNone), the stored
  // tail (SeqSelective), or nothing (Full).
  std::vector<Tensor> o_stored, lse_stored;
  std::vector<std::int64_t> stored_rows;  // local row indices kept
  // Ulysses / USP saved state (these impls manage their own full cache).
  core::UspSaved usp;
  std::uint64_t charged_bytes = 0;  // what we alloc'd on the MemoryTracker
};

struct DeviceState {
  const DistTrainConfig* cfg = nullptr;
  comm::Communicator* comm = nullptr;
  std::int64_t n_global = 0;
  IndexMap map = IndexMap::range(0, 0);
  SweepRoute route = SweepRoute::flat(comm::flat_ring(1));
  float scale = 1.0f;

  DistAttnConfig attn_cfg() const {
    DistAttnConfig ac;
    ac.mask = cfg->mask;
    ac.scale = scale;
    ac.balance = cfg->balance;
    ac.backward = cfg->impl == AttnImpl::kRing ? core::BackwardComm::kRing
                                               : core::BackwardComm::kBurst;
    ac.overlap = cfg->overlap;
    ac.seq_len = n_global;
    return ac;
  }

  core::UspConfig usp_cfg() const {
    core::UspConfig uc = usp_config(*cfg, n_global, comm->world_size());
    uc.scale = scale;
    return uc;
  }
};

// Column blocks of `all`, one per head, each rotated at the device's
// *global* positions when `rope` is given (the CP correctness trap the
// kernels/rope.hpp header documents). One parallel_for chunk per head.
std::vector<Tensor> split_heads(const Tensor& all, std::int64_t heads,
                                std::int64_t dh,
                                const IndexMap* rope = nullptr) {
  std::vector<Tensor> out(static_cast<std::size_t>(heads));
  parallel::parallel_for(0, out.size(), 1, [&](std::size_t h0,
                                               std::size_t h1) {
    for (std::size_t h = h0; h < h1; ++h) {
      out[h] = tensor::copy_cols(all, static_cast<std::int64_t>(h) * dh, dh);
      if (rope != nullptr) {
        kernels::apply_rope_inplace(out[h], *rope);
      }
    }
  });
  return out;
}

// On a one-member route a head's sweep sends nothing and reduces to its
// local kernels, so the heads run those under the deterministic
// parallel_for, one chunk per head. Their costs are charged after the join,
// in head order, as each sweep charges its own: inside the sweep's phase,
// `pre_flops` (the backward's D, Algorithm 2 line 2), then the kernel's.
void charge_local_heads(DeviceState& st, const char* phase, double pre_flops,
                        const std::vector<kernels::KernelStats>& stats) {
  comm::Transport& tp = st.comm->transport();
  for (const kernels::KernelStats& ks : stats) {
    sim::ScopedPhaseMetrics scope(tp, phase);
    if (pre_flops > 0.0) {
      tp.compute(pre_flops);
    }
    tp.compute(static_cast<double>(ks.flops));
  }
}

// Multi-head distributed attention forward; returns per-head (O, Lse).
void attention_forward(DeviceState& st, const Heads& hd, LayerCache& cache,
                       std::vector<Tensor>* o_out,
                       std::vector<Tensor>* lse_out) {
  const auto& cfg = *st.cfg;
  if (cfg.model.num_kv_heads() != cfg.model.heads && is_head_parallel(cfg)) {
    // Head parallelism would have to replicate shared K/V heads across the
    // query-head owners; unsupported here (the same constraint limits
    // DeepSpeed-Ulysses degrees to the KV head count on real GQA models).
    throw std::invalid_argument(
        "GQA (kv_heads != heads) requires a context-parallel attention impl");
  }
  switch (cfg.impl) {
    case AttnImpl::kBurst:
    case AttnImpl::kRing: {
      const std::size_t heads = hd.q.size();
      const auto group = static_cast<std::size_t>(cfg.model.group_size());
      const bool local = st.route.size() == 1;
      std::vector<kernels::KernelStats> stats(heads);
      o_out->resize(heads);
      lse_out->resize(heads);
      const auto attend = [&](std::size_t h0, std::size_t h1) {
        for (std::size_t h = h0; h < h1; ++h) {
          const Tensor& k = hd.k[h / group];
          const Tensor& v = hd.v[h / group];
          kernels::AttnResult r =
              local ? kernels::flash_forward(hd.q[h], st.map, k, v, st.map,
                                             cfg.mask, st.scale, &stats[h])
                    : core::dist_attention_forward(*st.comm, st.route,
                                                   st.attn_cfg(),
                                                   {hd.q[h], k, v});
          (*o_out)[h] = std::move(r.o);
          (*lse_out)[h] = std::move(r.lse);
        }
      };
      if (local) {
        parallel::parallel_for(0, heads, 1, attend);
        charge_local_heads(st, "attn.forward", 0.0, stats);
      } else {
        attend(0, heads);
      }
      break;
    }
    case AttnImpl::kUlysses:
    case AttnImpl::kUsp: {
      *o_out = usp_forward(*st.comm, st.usp_cfg(), hd.q, hd.k, hd.v,
                           &cache.usp);
      lse_out->clear();  // lse lives inside cache.usp
      break;
    }
  }
}

// Local row indices whose attention output is stored under the strategy.
std::vector<std::int64_t> stored_local_rows(const DistTrainConfig& cfg,
                                            const IndexMap& map,
                                            std::int64_t n_global) {
  std::vector<std::int64_t> rows;
  for (std::int64_t i = 0; i < map.size(); ++i) {
    if (core::stores_position(cfg.ckpt, map.global(i), n_global)) {
      rows.push_back(i);
    }
  }
  return rows;
}

Tensor gather_rows(const Tensor& t, const std::vector<std::int64_t>& rows) {
  Tensor out(static_cast<std::int64_t>(rows.size()), t.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::int64_t c = 0; c < t.cols(); ++c) {
      out(static_cast<std::int64_t>(i), c) = t(rows[i], c);
    }
  }
  return out;
}

Tensor gather_vec(const Tensor& t, const std::vector<std::int64_t>& rows) {
  Tensor out(static_cast<std::int64_t>(rows.size()));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out[static_cast<std::int64_t>(i)] = t[rows[i]];
  }
  return out;
}

// Charges `t` to the device memory tracker and records it in the cache.
void charge(DeviceState& st, LayerCache& cache, const Tensor& t,
            const char* tag) {
  const std::uint64_t bytes = bf16_bytes(t);
  st.comm->transport().mem().alloc(bytes, tag);
  cache.charged_bytes += bytes;
}

// The head split every distributed attention source starts from: charges
// the Q/K/V projection FLOPs to the virtual clock (before any sweep starts),
// then splits the projections into heads rotated at the device's global
// positions.
Heads split_qkv(DeviceState& st, const Tensor& q_all, const Tensor& k_all,
                const Tensor& v_all) {
  const auto& m = st.cfg->model;
  const std::int64_t dh = m.head_dim();
  st.comm->transport().compute(
      2.0 * static_cast<double>(q_all.rows()) *
      (fd(m.d_model) * fd(m.d_model) + 2.0 * fd(m.d_model) * fd(m.d_kv())));
  const IndexMap* rope = m.use_rope ? &st.map : nullptr;
  return Heads{split_heads(q_all, m.heads, dh, rope),
               split_heads(k_all, m.num_kv_heads(), dh, rope),
               split_heads(v_all, m.num_kv_heads(), dh)};
}

Tensor concat_heads(const std::vector<Tensor>& o, std::int64_t d_model) {
  Tensor out(o.front().rows(), d_model);
  for (std::size_t h = 0; h < o.size(); ++h) {
    tensor::set_cols(out, static_cast<std::int64_t>(h) * o[h].cols(), o[h]);
  }
  return out;
}

Tensor dist_layer_forward(DeviceState& st, const LayerWeights& w,
                          const Tensor& x, LayerCache& cache) {
  const auto& m = st.cfg->model;
  cache.x_in = x;
  charge(st, cache, x, "ckpt input");

  Heads hd;
  std::vector<Tensor> o, lse;
  BlockActs acts = block_hidden(
      w, x, [&](const Tensor& q_all, const Tensor& k_all, const Tensor& v_all) {
        hd = split_qkv(st, q_all, k_all, v_all);
        attention_forward(st, hd, cache, &o, &lse);
        return concat_heads(o, m.d_model);
      });
  Tensor y = block_output(w, acts);
  st.comm->transport().compute(2.0 * static_cast<double>(x.rows()) *
                         (fd(m.d_model) * fd(m.d_model) +
                          2.0 * fd(m.d_model) * fd(m.d_ff)));

  // --- what survives until backward ----------------------------------------
  if (is_head_parallel(*st.cfg)) {
    // Ulysses/USP keep their own full-sequence per-head state; account it.
    for (const auto& t : cache.usp.o) {
      charge(st, cache, t, "head-parallel saved");
    }
    cache.full = false;
    return y;
  }
  if (st.cfg->ckpt.strategy == CkptStrategy::kNone) {
    cache.full = true;
    cache.heads = std::move(hd);
    cache.o_stored = std::move(o);
    cache.lse_stored = std::move(lse);
    cache.acts = std::move(acts);
    for (const auto& t : cache.heads.q) {
      charge(st, cache, t, "acts q");
    }
    for (const auto& t : cache.heads.k) {
      charge(st, cache, t, "acts k");
    }
    for (const auto& t : cache.heads.v) {
      charge(st, cache, t, "acts v");
    }
    for (const auto& t : cache.o_stored) {
      charge(st, cache, t, "acts o");
    }
    charge(st, cache, cache.acts.attn, "acts attn");
    charge(st, cache, cache.acts.h, "acts h");
    charge(st, cache, cache.acts.u_pre, "acts u_pre");
    charge(st, cache, cache.acts.u, "acts u");
    return y;
  }

  // Checkpointed path: keep only the attention outputs the strategy stores.
  cache.stored_rows = stored_local_rows(*st.cfg, st.map, st.n_global);
  if (!cache.stored_rows.empty()) {
    for (std::int64_t h = 0; h < m.heads; ++h) {
      const std::size_t hi = static_cast<std::size_t>(h);
      cache.o_stored.push_back(gather_rows(o[hi], cache.stored_rows));
      cache.lse_stored.push_back(gather_vec(lse[hi], cache.stored_rows));
      charge(st, cache, cache.o_stored.back(), "stored attn out");
    }
  }
  return y;
}

// Rebuilds the full per-head (O, Lse) for backward: stored rows are
// restored, missing rows recomputed with a distributed subset forward.
void rebuild_attention_outputs(DeviceState& st,
                               const std::vector<Tensor>& q,
                               const std::vector<Tensor>& k,
                               const std::vector<Tensor>& v,
                               const LayerCache& cache, std::vector<Tensor>* o,
                               std::vector<Tensor>* lse) {
  const auto& m = st.cfg->model;
  const std::int64_t n_loc = st.map.size();
  std::vector<bool> is_stored(static_cast<std::size_t>(n_loc), false);
  for (std::int64_t r : cache.stored_rows) {
    is_stored[static_cast<std::size_t>(r)] = true;
  }
  std::vector<std::int64_t> missing;
  for (std::int64_t i = 0; i < n_loc; ++i) {
    if (!is_stored[static_cast<std::size_t>(i)]) {
      missing.push_back(i);
    }
  }
  // Global positions of the missing rows (merged into segments).
  std::vector<std::pair<std::int64_t, std::int64_t>> segs;
  for (std::int64_t r : missing) {
    const std::int64_t g = st.map.global(r);
    if (!segs.empty() && segs.back().first + segs.back().second == g) {
      ++segs.back().second;
    } else {
      segs.push_back({g, 1});
    }
  }
  const IndexMap missing_map = IndexMap::segments(segs);

  const std::int64_t group = st.cfg->model.group_size();
  for (std::int64_t h = 0; h < m.heads; ++h) {
    const std::size_t hi = static_cast<std::size_t>(h);
    const std::size_t kvh = static_cast<std::size_t>(h / group);
    Tensor o_full = Tensor::zeros(n_loc, m.head_dim());
    Tensor lse_full(n_loc);
    // Every rank participates in the recompute sweep even with nothing
    // missing locally (its K/V shard feeds the ring).
    Tensor q_sub = gather_rows(q[hi], missing);
    auto rec = core::dist_attention_forward_subset(
        *st.comm, st.route, st.attn_cfg(), q_sub, missing_map, k[kvh],
        v[kvh]);
    for (std::size_t i = 0; i < missing.size(); ++i) {
      const std::int64_t row = missing[i];
      for (std::int64_t c = 0; c < m.head_dim(); ++c) {
        o_full(row, c) = rec.o(static_cast<std::int64_t>(i), c);
      }
      lse_full[row] = rec.lse[static_cast<std::int64_t>(i)];
    }
    for (std::size_t i = 0; i < cache.stored_rows.size(); ++i) {
      const std::int64_t row = cache.stored_rows[i];
      for (std::int64_t c = 0; c < m.head_dim(); ++c) {
        o_full(row, c) = cache.o_stored[hi](static_cast<std::int64_t>(i), c);
      }
      lse_full[row] = cache.lse_stored[hi][static_cast<std::int64_t>(i)];
    }
    o->push_back(std::move(o_full));
    lse->push_back(std::move(lse_full));
  }
}

Tensor dist_layer_backward(DeviceState& st, const LayerWeights& w,
                           LayerCache& cache, const Tensor& d_y,
                           LayerGrads& g) {
  const auto& m = st.cfg->model;
  const std::int64_t dh = m.head_dim();
  const Tensor& x = cache.x_in;

  // ---- recompute (or restore) the forward intermediates --------------------
  Heads hd;
  std::vector<Tensor> o, lse;
  BlockActs acts;
  if (cache.full) {
    hd = std::move(cache.heads);
    o = std::move(cache.o_stored);
    lse = std::move(cache.lse_stored);
    acts = std::move(cache.acts);
  } else {
    // The block up to W_1: the recompute never needs W_2's output.
    acts = block_hidden(w, x, [&](const Tensor& q_all, const Tensor& k_all,
                                  const Tensor& v_all) {
      hd = split_qkv(st, q_all, k_all, v_all);
      if (is_head_parallel(*st.cfg)) {
        // Ulysses/USP local O is recomputed by a fresh forward on scratch
        // state (outputs equal the stored ones); backward reads the saved
        // head-sharded state.
        core::UspSaved scratch;
        o = usp_forward(*st.comm, st.usp_cfg(), hd.q, hd.k, hd.v, &scratch);
      } else {
        rebuild_attention_outputs(st, hd.q, hd.k, hd.v, cache, &o, &lse);
      }
      return concat_heads(o, m.d_model);
    });
    st.comm->transport().compute(2.0 * static_cast<double>(x.rows()) *
                           (fd(m.d_model) * fd(m.d_model) +
                            fd(m.d_model) * fd(m.d_ff)));
  }

  // ---- backward math (the serial block's) ----------------------------------
  BlockFfnGrads ffn = block_backward_ffn(w, acts, d_y, g);
  st.comm->transport().compute(4.0 * static_cast<double>(x.rows()) *
                         (fd(m.d_model) * fd(m.d_model) +
                          2.0 * fd(m.d_model) * fd(m.d_ff)));

  std::vector<Tensor> d_o_heads = split_heads(ffn.d_attn, m.heads, dh);
  Tensor dq_all(x.rows(), m.d_model);
  Tensor dk_all(x.rows(), m.d_kv());
  Tensor dv_all(x.rows(), m.d_kv());
  if (is_head_parallel(*st.cfg)) {
    // The head-parallel impls return every head's gradients for local rows.
    const core::UspGrads grads =
        usp_backward(*st.comm, st.usp_cfg(), cache.usp, d_o_heads);
    for (std::int64_t h = 0; h < m.heads; ++h) {
      const std::size_t hi = static_cast<std::size_t>(h);
      tensor::set_cols(dq_all, h * dh, grads.dq[hi]);
      tensor::set_cols(dk_all, h * dh, grads.dk[hi]);
      tensor::set_cols(dv_all, h * dh, grads.dv[hi]);
    }
  } else {
    const auto heads = static_cast<std::size_t>(m.heads);
    const auto group = static_cast<std::size_t>(m.group_size());
    const bool local = st.route.size() == 1;
    std::vector<kernels::KernelStats> stats(heads);
    std::vector<core::LocalGrads> grads(heads);
    const auto attend_backward = [&](std::size_t h0, std::size_t h1) {
      for (std::size_t h = h0; h < h1; ++h) {
        const Tensor& k = hd.k[h / group];
        const Tensor& v = hd.v[h / group];
        core::LocalGrads& hg = grads[h];
        if (local) {
          hg = {Tensor::zeros(x.rows(), dh), Tensor::zeros(x.rows(), dh),
                Tensor::zeros(x.rows(), dh)};
          kernels::flash_backward_partial(
              hd.q[h], st.map, k, v, st.map, st.cfg->mask, st.scale,
              d_o_heads[h], lse[h], kernels::attention_dvec(d_o_heads[h], o[h]),
              hg.dq, hg.dk, hg.dv, &stats[h]);
        } else {
          hg = core::dist_attention_backward(*st.comm, st.route,
                                             st.attn_cfg(), {hd.q[h], k, v},
                                             {o[h], lse[h]}, d_o_heads[h]);
        }
        d_o_heads[h] = Tensor();  // the head's dO is spent
        if (m.use_rope) {  // gradients w.r.t. the pre-rotation Q/K
          kernels::apply_rope_inverse_inplace(hg.dq, st.map);
          kernels::apply_rope_inverse_inplace(hg.dk, st.map);
        }
        tensor::set_cols(dq_all, static_cast<std::int64_t>(h) * dh, hg.dq);
        hg.dq = Tensor();
      }
    };
    if (local) {
      parallel::parallel_for(0, heads, 1, attend_backward);
      charge_local_heads(st, "attn.backward", 2.0 * fd(x.rows()) * fd(dh),
                         stats);
    } else {
      attend_backward(0, heads);
    }
    // Query heads of one group accumulate into their shared K/V head, in
    // ascending head order.
    dk_all.fill(0.0f);
    dv_all.fill(0.0f);
    for (std::int64_t h = 0; h < m.heads; ++h) {
      const core::LocalGrads& head = grads[static_cast<std::size_t>(h)];
      const std::int64_t kv_col = h / m.group_size() * dh;
      tensor::add_cols_inplace(dk_all, kv_col, head.dk);
      tensor::add_cols_inplace(dv_all, kv_col, head.dv);
    }
  }

  Tensor dx = block_backward_qkv(w, x, std::move(ffn.d_h), dq_all, dk_all,
                                 dv_all, g);
  st.comm->transport().compute(12.0 * static_cast<double>(x.rows()) * fd(m.d_model) *
                         fd(m.d_model));

  // Release everything this layer had charged.
  st.comm->transport().mem().free(cache.charged_bytes);
  cache.charged_bytes = 0;
  return dx;
}

// Device state for a global sequence of `n` positions on this rank.
DeviceState device_state(comm::Communicator& comm, const DistTrainConfig& cfg,
                         std::int64_t n) {
  DeviceState st;
  st.cfg = &cfg;
  st.comm = &comm;
  st.n_global = n;
  st.map = dist_index_map(cfg, n, comm.world_size(), comm.rank());
  st.scale = 1.0f / std::sqrt(static_cast<float>(cfg.model.head_dim()));
  const bool multi = comm.transport().topo().num_nodes > 1;
  st.route = (cfg.topo_aware && multi)
                 ? SweepRoute::double_ring(comm.transport().topo())
                 : SweepRoute::flat(comm::flat_ring(comm.world_size()));
  return st;
}

// The step's N+1 float-encoded ids, checked before anything is allocated:
// the embedding's own bounds check is an assert.
void check_tokens(const ModelConfig& m, const Tensor& tokens) {
  if (tokens.numel() < 2) {
    throw std::invalid_argument("train step: tokens hold " +
                                std::to_string(tokens.numel()) +
                                " ids, fewer than 2");
  }
  for (std::int64_t i = 0; i < tokens.numel(); ++i) {
    if (!(tokens[i] >= 0.0f && tokens[i] < static_cast<float>(m.vocab))) {
      throw std::invalid_argument("train step: token " + std::to_string(i) +
                                  " is outside [0, vocab)");
    }
  }
}

// Row i's input id and its target, the next token, at this rank's positions.
struct LocalTokens {
  std::vector<std::int64_t> ids, targets;
};

LocalTokens local_tokens(const IndexMap& map, const Tensor& tokens) {
  LocalTokens lt;
  for (std::int64_t i = 0; i < map.size(); ++i) {
    const std::int64_t pos = map.global(i);
    lt.ids.push_back(static_cast<std::int64_t>(tokens[pos]));
    lt.targets.push_back(static_cast<std::int64_t>(tokens[pos + 1]));
  }
  return lt;
}

std::vector<int> whole_world(int g) {
  std::vector<int> world(static_cast<std::size_t>(g));
  std::iota(world.begin(), world.end(), 0);
  return world;
}

// LM head + loss over this rank's rows (sequence-parallel: local rows, full
// vocabulary). Charges the head's FLOPs and its scratch high-water mark (fp32
// actual -> as-if bf16); the caller frees the scratch. Every shard has N/G
// rows, so the global mean loss is the all-reduced average of the local
// means, reduced as a float; the returned result holds it.
kernels::LmHeadResult lm_head_loss(DeviceState& st, const Tensor& x,
                                   const Tensor& w_head,
                                   const std::vector<std::int64_t>& targets) {
  comm::Communicator& comm = *st.comm;
  kernels::LmHeadResult lm =
      st.cfg->fused_lm_head
          ? kernels::fused_lm_head_loss(x, w_head, targets,
                                        kernels::kLmHeadStripRows,
                                        kernels::kLmHeadTileCols)
          : kernels::naive_lm_head_loss(x, w_head, targets);
  comm.transport().mem().alloc(lm.peak_scratch_bytes / 2, "lm head scratch");
  comm.transport().compute(static_cast<double>(lm.flops));
  Tensor loss_t(1, 1);
  loss_t(0, 0) = static_cast<float>(lm.loss) *
                 (1.0f / static_cast<float>(comm.world_size()));
  comm.all_reduce_group_inplace(whole_world(comm.world_size()), loss_t);
  lm.loss = loss_t(0, 0);
  return lm;
}

// Forward only: each layer's cache, and its charge, is dropped as soon as
// the layer's output exists.
Tensor forward_only(DeviceState& st, const ModelWeights& w, Tensor x) {
  for (const LayerWeights& lw : w.layers) {
    LayerCache cache;
    x = dist_layer_forward(st, lw, x, cache);
    st.comm->transport().mem().free(cache.charged_bytes);
  }
  return x;
}

}  // namespace

int head_group_size(const DistTrainConfig& cfg, int world_size) {
  switch (cfg.impl) {
    case AttnImpl::kUlysses:
      return world_size;
    case AttnImpl::kUsp:
      return cfg.usp_head_parallel;
    default:
      return 1;
  }
}

IndexMap dist_index_map(const DistTrainConfig& cfg, std::int64_t seq_len,
                        int world_size, int rank) {
  if (is_head_parallel(cfg)) {
    return core::usp_local_index_map(usp_config(cfg, seq_len, world_size),
                                     world_size, rank);
  }
  return core::device_index_map(cfg.balance, seq_len, world_size, rank);
}

DistStepResult dist_train_step(comm::Communicator& comm,
                               const DistTrainConfig& cfg,
                               const ModelWeights& weights,
                               const Tensor& tokens) {
  check_tokens(cfg.model, tokens);
  const auto& m = cfg.model;
  DeviceState st = device_state(comm, cfg, tokens.numel() - 1);

  // ---- embedding + forward ---------------------------------------------------
  const LocalTokens lt = local_tokens(st.map, tokens);
  Tensor x = embed(weights, lt.ids.data(), st.map.size());
  std::vector<LayerCache> caches(static_cast<std::size_t>(m.layers));
  for (std::int64_t l = 0; l < m.layers; ++l) {
    x = dist_layer_forward(st, weights.layers[static_cast<std::size_t>(l)], x,
                           caches[static_cast<std::size_t>(l)]);
  }

  // ---- LM head + loss ----------------------------------------------------------
  kernels::LmHeadResult lm = lm_head_loss(st, x, weights.w_head, lt.targets);
  DistStepResult out;
  out.loss = lm.loss;
  out.grads = ModelGrads::zeros(m);
  // The gradient of the global mean scales with 1/G.
  const float inv_g = 1.0f / static_cast<float>(comm.world_size());
  out.grads.w_head = std::move(lm.dw);
  tensor::scale_inplace(out.grads.w_head, inv_g);
  Tensor dx = std::move(lm.dh);
  tensor::scale_inplace(dx, inv_g);
  comm.transport().mem().free(lm.peak_scratch_bytes / 2);

  // ---- backward ------------------------------------------------------------
  for (std::int64_t l = m.layers - 1; l >= 0; --l) {
    dx = dist_layer_backward(st, weights.layers[static_cast<std::size_t>(l)],
                             caches[static_cast<std::size_t>(l)], dx,
                             out.grads.layers[static_cast<std::size_t>(l)]);
  }
  embed_backward(lt.ids.data(), dx, out.grads.w_embed);

  // ---- data-parallel gradient synchronization --------------------------------
  if (!cfg.sync_grads) {
    return out;  // caller reduce-scatters (FSDP)
  }
  const std::vector<int> world = whole_world(comm.world_size());
  for_each_param(
      [&](Tensor& grad) { comm.all_reduce_group_inplace(world, grad); },
      out.grads);
  return out;
}

namespace {

// Runs `fn(comm, cfg)` for one rank: a one-device simulated cluster,
// contiguous rows, every activation kept (no recompute), the fused LM head.
// A lone rank has no peer to wait on, so it runs on the calling thread
// rather than under Cluster::run: a step per call spawns no thread, and no
// malloc arena of its own.
template <class Fn>
void on_one_device(const ModelConfig& m, const MaskSpec& mask, Fn&& fn) {
  DistTrainConfig cfg;
  cfg.model = m;
  cfg.mask = mask;
  cfg.balance = Balance::kContiguous;
  cfg.ckpt = core::CkptConfig{CkptStrategy::kNone, 0.0};
  // burst-lint: allow(no-direct-cluster) hosting boundary of the one-device entry points
  sim::Cluster cluster({sim::Topology::single_node(1)});
  // burst-lint: allow(no-direct-cluster) the lone rank, wrapped in a SimTransport
  sim::DeviceContext ctx(cluster, 0);
  comm::SimTransport tp(ctx);
  comm::Communicator comm(tp);
  fn(comm, cfg);
}

}  // namespace

TrainStepResult serial_train_step(const ModelConfig& cfg,
                                  const ModelWeights& w, const Tensor& tokens,
                                  const MaskSpec& mask) {
  TrainStepResult out;
  on_one_device(cfg, mask, [&](comm::Communicator& comm,
                               const DistTrainConfig& dc) {
    out = dist_train_step(comm, dc, w, tokens);
  });
  return out;
}

double serial_loss(const ModelConfig& cfg, const ModelWeights& w,
                   const Tensor& tokens, const MaskSpec& mask) {
  check_tokens(cfg, tokens);
  double loss = 0.0;
  on_one_device(cfg, mask, [&](comm::Communicator& comm,
                               const DistTrainConfig& dc) {
    DeviceState st = device_state(comm, dc, tokens.numel() - 1);
    const LocalTokens lt = local_tokens(st.map, tokens);
    const Tensor x =
        forward_only(st, w, embed(w, lt.ids.data(), st.map.size()));
    loss = lm_head_loss(st, x, w.w_head, lt.targets).loss;
  });
  return loss;
}

Tensor serial_forward_logits(const ModelConfig& cfg, const ModelWeights& w,
                             const std::int64_t* tokens, std::int64_t count,
                             const MaskSpec& mask) {
  Tensor h;
  on_one_device(cfg, mask, [&](comm::Communicator& comm,
                               const DistTrainConfig& dc) {
    // One rank's rows are the whole sequence, in order.
    DeviceState st = device_state(comm, dc, count);
    h = forward_only(st, w, embed(w, tokens, count));
  });
  return head_logits(w, h);
}

std::vector<double> serial_per_row_loss(const ModelConfig& cfg,
                                        const ModelWeights& w,
                                        const Tensor& tokens,
                                        const MaskSpec& mask) {
  const std::int64_t n = tokens.numel() - 1;
  const LocalTokens lt = local_tokens(IndexMap::range(0, n), tokens);
  // Per-row CE: lse(logits_i) - logit_i[target_i].
  const Tensor logits = serial_forward_logits(cfg, w, lt.ids.data(), n, mask);
  const Tensor lse = tensor::row_lse(logits);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto row = static_cast<std::size_t>(i);
    out[row] = static_cast<double>(lse[i]) - logits(i, lt.targets[row]);
  }
  return out;
}

}  // namespace burst::model
