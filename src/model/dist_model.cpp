#include "model/dist_model.hpp"

#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/sim_transport.hpp"
#include "core/sweep.hpp"
#include "core/usp.hpp"
#include "kernels/lm_head.hpp"
#include "kernels/rope.hpp"
#include "model/block.hpp"
// burst-lint: allow(no-direct-cluster) the one-device entry points host their cluster
#include "sim/cluster.hpp"
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

// Everything a layer may keep between forward and backward. Which fields are
// populated depends on the checkpoint strategy / attention impl.
struct LayerCache {
  Tensor x_in;  // always stored (the gradient-checkpoint boundary)
  // kNone: full serial-style cache.
  bool full = false;
  core::LocalHeads heads;
  BlockActs acts;
  // Attention outputs (per head): all rows (kNone), the stored rows
  // (SelectivePP / SeqSelective), or nothing (Full).
  core::HeadsResult stored;
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
  // RoPE angles of `map`'s rows (null without RoPE), built once per step
  // and shared by every layer's forward, recompute and backward.
  std::unique_ptr<const kernels::RopeTable> rope;

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

// Every local head's attention: one multi-head sweep on the context-parallel
// route, or USP's pipeline, which keeps its state in `usp`.
core::HeadsResult attend_heads(DeviceState& st, const core::LocalHeads& hd,
                               core::UspSaved* usp) {
  const auto& cfg = *st.cfg;
  if (!is_head_parallel(cfg)) {
    return core::dist_attention_forward(*st.comm, st.route, st.attn_cfg(), hd);
  }
  if (cfg.model.num_kv_heads() != cfg.model.heads) {
    // Head parallelism would have to replicate shared K/V heads across the
    // query-head owners; unsupported here (the same constraint limits
    // DeepSpeed-Ulysses degrees to the KV head count on real GQA models).
    throw std::invalid_argument(
        "GQA (kv_heads != heads) requires a context-parallel attention impl");
  }
  return {usp_forward(*st.comm, st.usp_cfg(), hd.q, hd.k, hd.v, usp), {}};
}

// Local row indices whose attention output the strategy stores, and the
// rest.
struct Rows {
  std::vector<std::int64_t> stored, missing;
};

Rows checkpoint_rows(const DeviceState& st) {
  Rows rows;
  for (std::int64_t i = 0; i < st.map.size(); ++i) {
    const bool kept =
        core::stores_position(st.cfg->ckpt, st.map.global(i), st.n_global);
    (kept ? rows.stored : rows.missing).push_back(i);
  }
  return rows;
}

// `map`'s positions of the ascending local `rows`, merged into segments.
IndexMap positions(const IndexMap& map, const std::vector<std::int64_t>& rows) {
  std::vector<std::pair<std::int64_t, std::int64_t>> segs;
  for (std::int64_t r : rows) {
    const std::int64_t g = map.global(r);
    if (!segs.empty() && segs.back().first + segs.back().second == g) {
      ++segs.back().second;
    } else {
      segs.push_back({g, 1});
    }
  }
  return IndexMap::segments(std::move(segs));
}

Tensor gather_vec(const Tensor& t, const IndexMap& rows) {
  Tensor out(rows.size());
  for (std::int64_t i = 0; i < rows.size(); ++i) {
    out[i] = t[rows.global(i)];
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
core::LocalHeads split_qkv(DeviceState& st, const Tensor& q_all,
                           const Tensor& k_all, const Tensor& v_all) {
  const auto& m = st.cfg->model;
  const std::int64_t dh = m.head_dim();
  st.comm->transport().compute(
      static_cast<double>(qkv_flops(m, q_all.rows())));
  return {split_heads(q_all, m.heads, dh, st.rope.get()),
          split_heads(k_all, m.num_kv_heads(), dh, st.rope.get()),
          split_heads(v_all, m.num_kv_heads(), dh)};
}

Tensor dist_layer_forward(DeviceState& st, const LayerWeights& w,
                          const Tensor& x, LayerCache& cache) {
  const auto& m = st.cfg->model;
  cache.x_in = x;
  charge(st, cache, x, "ckpt input");

  core::LocalHeads hd;
  core::HeadsResult attn;
  BlockActs acts = block_hidden(
      w, x, [&](const Tensor& q_all, const Tensor& k_all, const Tensor& v_all) {
        hd = split_qkv(st, q_all, k_all, v_all);
        attn = attend_heads(st, hd, &cache.usp);
        return concat_heads(attn.o, m.d_model);
      });
  Tensor y = block_output(w, acts);
  st.comm->transport().compute(static_cast<double>(
      wo_flops(m, x.rows()) + 2 * ffn_matrix_flops(m, x.rows())));

  // --- what survives until backward ----------------------------------------
  if (is_head_parallel(*st.cfg)) {
    // Ulysses/USP keep their own full-sequence per-head state; account it.
    for (const auto& t : cache.usp.out.o) {
      charge(st, cache, t, "head-parallel saved");
    }
    cache.full = false;
    return y;
  }
  if (st.cfg->ckpt.strategy == CkptStrategy::kNone) {
    cache.full = true;
    cache.heads = std::move(hd);
    cache.stored = std::move(attn);
    cache.acts = std::move(acts);
    for (const auto& [heads, tag] :
         {std::pair{&cache.heads.q, "acts q"}, {&cache.heads.k, "acts k"},
          {&cache.heads.v, "acts v"}, {&cache.stored.o, "acts o"}}) {
      for (const Tensor& t : *heads) {
        charge(st, cache, t, tag);
      }
    }
    charge(st, cache, cache.acts.attn, "acts attn");
    charge(st, cache, cache.acts.h, "acts h");
    charge(st, cache, cache.acts.u_pre, "acts u_pre");
    charge(st, cache, cache.acts.u, "acts u");
    return y;
  }

  // Checkpointed path: keep only the attention outputs the strategy stores.
  const IndexMap stored = positions(IndexMap::range(0, st.map.size()),
                                    checkpoint_rows(st).stored);
  if (stored.size() > 0) {
    for (std::size_t h = 0; h < attn.o.size(); ++h) {
      cache.stored.o.push_back(core::shard_rows(attn.o[h], stored));
      cache.stored.lse.push_back(gather_vec(attn.lse[h], stored));
      charge(st, cache, cache.stored.o.back(), "stored attn out");
    }
  }
  return y;
}

// Rebuilds the full per-head (O, Lse) for backward: stored rows are
// restored, missing rows recomputed by one multi-head sweep over their
// queries.
core::HeadsResult rebuild_attention_outputs(DeviceState& st,
                                            const core::LocalHeads& hd,
                                            const LayerCache& cache) {
  const std::int64_t n_loc = st.map.size();
  const Rows rows = checkpoint_rows(st);
  const IndexMap all = IndexMap::range(0, n_loc);
  const IndexMap missing = positions(all, rows.missing);
  const IndexMap stored = positions(all, rows.stored);

  // Every rank takes part in the recompute sweep even with nothing missing
  // locally (its K/V shard feeds the ring). A strategy that stores every
  // position, on every rank alike, runs none: the stored rows are restored.
  core::HeadsResult rec;
  if (core::stored_boundary(st.cfg->ckpt, st.n_global) > 0) {
    core::LocalHeads sub{{}, hd.k, hd.v};
    for (const Tensor& q : hd.q) {
      sub.q.push_back(core::shard_rows(q, missing));
    }
    const IndexMap missing_at = positions(st.map, rows.missing);
    rec = core::dist_attention_forward(*st.comm, st.route, st.attn_cfg(), sub,
                                       nullptr, &missing_at);
  }

  core::HeadsResult out;
  for (std::size_t h = 0; h < hd.q.size(); ++h) {
    out.o.push_back(Tensor::zeros(n_loc, hd.q[h].cols()));
    out.lse.push_back(Tensor(n_loc));
    if (missing.size() > 0) {
      core::unshard_rows(out.o[h], missing, rec.o[h]);
      core::unshard_vec(out.lse[h], missing, rec.lse[h]);
    }
    if (stored.size() > 0) {
      core::unshard_rows(out.o[h], stored, cache.stored.o[h]);
      core::unshard_vec(out.lse[h], stored, cache.stored.lse[h]);
    }
  }
  return out;
}

Tensor dist_layer_backward(DeviceState& st, const LayerWeights& w,
                           LayerCache& cache, const Tensor& d_y,
                           LayerGrads& g) {
  const auto& m = st.cfg->model;
  const Tensor& x = cache.x_in;

  // ---- recompute (or restore) the forward intermediates --------------------
  core::LocalHeads hd;
  core::HeadsResult attn;
  BlockActs acts;
  if (cache.full) {
    hd = std::move(cache.heads);
    attn = std::move(cache.stored);
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
        attn = attend_heads(st, hd, &scratch);
      } else {
        attn = rebuild_attention_outputs(st, hd, cache);
      }
      return concat_heads(attn.o, m.d_model);
    });
    st.comm->transport().compute(static_cast<double>(
        wo_flops(m, x.rows()) + ffn_matrix_flops(m, x.rows())));
  }

  // ---- backward math (the serial block's) ----------------------------------
  BlockFfnGrads ffn = block_backward_ffn(w, acts, d_y, g);
  st.comm->transport().compute(static_cast<double>(
      2 * (wo_flops(m, x.rows()) + 2 * ffn_matrix_flops(m, x.rows()))));

  // Every head's gradients for the local rows, w.r.t. the pre-rotation Q/K.
  std::vector<Tensor> d_o_heads =
      split_heads(ffn.d_attn, m.heads, m.head_dim());
  const core::HeadsGrads grads =
      is_head_parallel(*st.cfg)
          ? usp_backward(*st.comm, st.usp_cfg(), cache.usp, d_o_heads,
                         nullptr, m.use_rope)
          : core::dist_attention_backward(*st.comm, st.route, st.attn_cfg(),
                                          hd, attn, std::move(d_o_heads),
                                          nullptr, st.rope.get());
  Tensor dx = block_backward_qkv(w, x, std::move(ffn.d_h),
                                 concat_heads(grads.dq, m.d_model),
                                 concat_heads(grads.dk, m.d_kv()),
                                 concat_heads(grads.dv, m.d_kv()), g);
  st.comm->transport().compute(
      static_cast<double>(2 * qkv_flops(m, x.rows())));

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
  if (cfg.model.use_rope) {
    st.rope =
        std::make_unique<kernels::RopeTable>(st.map, cfg.model.head_dim());
  }
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
kernels::LmHeadResult lm_head_loss(comm::Communicator& comm,
                                   const DistTrainConfig& cfg, const Tensor& x,
                                   const Tensor& w_head,
                                   const std::vector<std::int64_t>& targets) {
  kernels::LmHeadResult lm =
      cfg.fused_lm_head
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
  kernels::LmHeadResult lm =
      lm_head_loss(comm, cfg, x, weights.w_head, lt.targets);
  DistStepResult out;
  out.loss = lm.loss;
  // Only the embedding gradient starts as zeros (embed_backward scatter-adds
  // into it); the layers' weight gradients are stored by the backward below
  // and w_head's is the LM head's.
  out.grads.layers.resize(static_cast<std::size_t>(m.layers));
  out.grads.w_embed = Tensor::zeros(m.vocab, m.d_model);
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

Tensor dist_forward(comm::Communicator& comm, const DistTrainConfig& cfg,
                    const ModelWeights& w, const std::int64_t* ids,
                    std::int64_t n, std::vector<core::LocalHeads>* kv) {
  DeviceState st = device_state(comm, cfg, n);
  std::vector<std::int64_t> local(static_cast<std::size_t>(st.map.size()));
  for (std::size_t i = 0; i < local.size(); ++i) {
    local[i] = ids[st.map.global(static_cast<std::int64_t>(i))];
  }
  Tensor x = embed(w, local.data(), st.map.size());
  for (const LayerWeights& lw : w.layers) {
    LayerCache cache;
    x = dist_layer_forward(st, lw, x, cache);
    comm.transport().mem().free(cache.charged_bytes);
    if (kv != nullptr) {
      assert(cache.full);
      kv->push_back({{}, std::move(cache.heads.k), std::move(cache.heads.v)});
    }
  }
  return x;
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
  const std::int64_t n = tokens.numel() - 1;
  // One rank's rows are the whole sequence, in order.
  const LocalTokens lt = local_tokens(IndexMap::range(0, n), tokens);
  double loss = 0.0;
  on_one_device(cfg, mask, [&](comm::Communicator& comm,
                               const DistTrainConfig& dc) {
    const Tensor x = dist_forward(comm, dc, w, lt.ids.data(), n);
    loss = lm_head_loss(comm, dc, x, w.w_head, lt.targets).loss;
  });
  return loss;
}

Tensor serial_forward_logits(const ModelConfig& cfg, const ModelWeights& w,
                             const std::int64_t* tokens, std::int64_t count,
                             const MaskSpec& mask) {
  Tensor h;
  on_one_device(cfg, mask, [&](comm::Communicator& comm,
                               const DistTrainConfig& dc) {
    h = dist_forward(comm, dc, w, tokens, count);
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
