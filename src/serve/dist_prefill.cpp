#include "serve/dist_prefill.hpp"
// burst-lint: allow-file(no-direct-cluster) hosting boundary: wraps each cluster rank in a SimTransport before the comm layer is used

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "model/dist_model.hpp"

namespace burst::serve {

using model::ModelConfig;
using model::SequenceKvCache;
using tensor::Tensor;

namespace {

// Tags for the gather phase; the forward's ring sweeps use their own tag
// space, and mailbox keys include the source rank, so one tag per (layer,
// kv head) suffices.
constexpr int kTagKv = 9000;
constexpr int kTagHidden = 9900;

}  // namespace

DistPrefillResult distributed_prefill(sim::Cluster& cluster,
                                      const ModelConfig& cfg,
                                      const model::ModelWeights& w,
                                      const std::vector<std::int64_t>& prompt,
                                      std::int64_t block_tokens,
                                      const kernels::MaskSpec& mask) {
  const auto n = static_cast<std::int64_t>(prompt.size());
  const int world = cluster.world_size();
  if (n <= 0 || n % world != 0) {
    throw std::invalid_argument(
        "distributed_prefill: prompt length must be a positive multiple of "
        "the cluster world size");
  }
  if (std::any_of(prompt.begin(), prompt.end(), [&](std::int64_t t) {
        return t < 0 || t >= cfg.vocab;
      })) {
    throw std::invalid_argument(
        "distributed_prefill: prompt token id outside [0, vocab)");
  }

  DistPrefillResult out;
  out.cache = SequenceKvCache::create(cfg, block_tokens);
  out.cache.reserve(n);

  const std::int64_t kvh_n = cfg.num_kv_heads();
  // The training step's forward on contiguous shards: rank r holds rows
  // [r·n/G, (r+1)·n/G), so rank G-1 holds the last prompt row.
  model::DistTrainConfig dc;
  dc.model = cfg;
  dc.mask = mask;
  dc.impl = model::AttnImpl::kBurst;
  dc.balance = core::Balance::kContiguous;
  dc.ckpt = core::CkptConfig{core::CkptStrategy::kNone, 0.0};

  cluster.run([&](sim::DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    // Per-layer local K/V shards (post-RoPE), kept for the gather phase.
    std::vector<core::LocalHeads> kv;
    const Tensor x = model::dist_forward(comm, dc, w, prompt.data(), n, &kv);
    const std::int64_t m = x.rows();

    // Gather: every device ships its per-(layer, kv head) cache shard to
    // rank 0, which writes them at the shard's global row offset.
    if (ctx.rank() != 0) {
      for (std::int64_t l = 0; l < cfg.layers; ++l) {
        const auto& shard = kv[static_cast<std::size_t>(l)];
        for (std::int64_t kvh = 0; kvh < kvh_n; ++kvh) {
          const int tag = kTagKv + static_cast<int>(l * kvh_n + kvh);
          const auto ki = static_cast<std::size_t>(kvh);
          comm.send(0, tag, {shard.k[ki], shard.v[ki]});
        }
      }
      if (ctx.rank() == world - 1) {
        comm.send(0, kTagHidden, {x.copy_rows(m - 1, 1)});
      }
    } else {
      for (std::int64_t l = 0; l < cfg.layers; ++l) {
        const auto& shard = kv[static_cast<std::size_t>(l)];
        for (std::int64_t kvh = 0; kvh < kvh_n; ++kvh) {
          const auto ki = static_cast<std::size_t>(kvh);
          out.cache.put_at(l, kvh, 0, shard.k[ki], shard.v[ki]);
          for (int src = 1; src < world; ++src) {
            const int tag = kTagKv + static_cast<int>(l * kvh_n + kvh);
            auto msg = comm.recv(src, tag);
            assert(msg.size() == 2);
            const std::int64_t src_off =
                model::dist_index_map(dc, n, world, src).offset();
            out.cache.put_at(l, kvh, src_off, msg[0], msg[1]);
          }
        }
      }
      out.last_hidden = world == 1 ? x.copy_rows(m - 1, 1)
                                   : comm.recv(world - 1, kTagHidden)[0];
      out.cache.commit(n);
      out.first_token = model::argmax(
          model::logits_row(model::head_logits(w, out.last_hidden), 0));
    }
  });

  return out;
}

}  // namespace burst::serve
