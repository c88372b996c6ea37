#include "serve/dist_prefill.hpp"
// burst-lint: allow-file(no-direct-cluster) hosting boundary: wraps each cluster rank in a SimTransport before the comm layer is used

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "core/dist_attention.hpp"
#include "core/sweep.hpp"
#include "kernels/rope.hpp"
#include "model/block.hpp"

namespace burst::serve {

using kernels::IndexMap;
using model::ModelConfig;
using model::SequenceKvCache;
using tensor::Tensor;

namespace {

// Tags for the gather phase; the ring sweeps inside dist_attention_forward
// use their own tag space, and mailbox keys include the source rank, so one
// tag per (layer, kv head) suffices.
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

  const std::int64_t dh = cfg.head_dim();
  const std::int64_t kvh_n = cfg.num_kv_heads();

  cluster.run([&](sim::DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    const auto route = core::SweepRoute::double_ring(cluster.config().topo);

    core::DistAttnConfig acfg;
    acfg.mask = mask;
    acfg.scale = 1.0f / std::sqrt(static_cast<float>(dh));
    acfg.balance = core::Balance::kContiguous;
    acfg.backward = core::BackwardComm::kBurst;
    acfg.seq_len = n;
    const IndexMap map = core::route_index_map(route, acfg, ctx.rank());
    const std::int64_t m = map.size();
    const std::int64_t off = map.offset();

    Tensor x = model::embed(w, prompt.data() + off, m);  // contiguous shard

    // Per-layer local K/V shards (post-RoPE), kept for the gather phase.
    std::vector<std::vector<Tensor>> k_shard(
        static_cast<std::size_t>(cfg.layers));
    std::vector<std::vector<Tensor>> v_shard(
        static_cast<std::size_t>(cfg.layers));

    // Every layer's and head's RoPE angles (null without RoPE).
    std::unique_ptr<const kernels::RopeTable> rope;
    if (cfg.use_rope) {
      rope = std::make_unique<kernels::RopeTable>(map, dh);
    }
    for (std::int64_t l = 0; l < cfg.layers; ++l) {
      const auto li = static_cast<std::size_t>(l);
      const auto& lw = w.layers[li];
      // Attention source: one BurstAttention ring sweep over every shard,
      // every head at once.
      x = model::block_output(lw, model::block_hidden(lw, x, [&](
          const Tensor& q_all, const Tensor& k_all, const Tensor& v_all) {
        core::LocalHeads hd{
            model::split_heads(q_all, cfg.heads, dh, rope.get()),
            model::split_heads(k_all, kvh_n, dh, rope.get()),
                            model::split_heads(v_all, kvh_n, dh)};
        Tensor attn = model::concat_heads(
            core::dist_attention_forward(comm, route, acfg, hd).o,
            cfg.d_model);
        k_shard[li] = std::move(hd.k);
        v_shard[li] = std::move(hd.v);
        return attn;
      }));
    }

    // Gather: every device ships its per-(layer, kv head) cache shard to
    // rank 0, which writes them at the shard's global row offset.
    if (ctx.rank() != 0) {
      for (std::int64_t l = 0; l < cfg.layers; ++l) {
        for (std::int64_t kvh = 0; kvh < kvh_n; ++kvh) {
          const int tag = kTagKv + static_cast<int>(l * kvh_n + kvh);
          comm.send(0, tag,
                    {k_shard[static_cast<std::size_t>(l)]
                            [static_cast<std::size_t>(kvh)],
                     v_shard[static_cast<std::size_t>(l)]
                            [static_cast<std::size_t>(kvh)]});
        }
      }
      if (off + m == n) {
        // This shard owns the last prompt row (route position world-1,
        // whatever global rank that is).
        comm.send(0, kTagHidden, {x.copy_rows(m - 1, 1)});
      }
    } else {
      for (std::int64_t l = 0; l < cfg.layers; ++l) {
        for (std::int64_t kvh = 0; kvh < kvh_n; ++kvh) {
          const auto li = static_cast<std::size_t>(l);
          const auto ki = static_cast<std::size_t>(kvh);
          out.cache.put_at(l, kvh, off, k_shard[li][ki], v_shard[li][ki]);
          for (int src = 1; src < world; ++src) {
            const int tag = kTagKv + static_cast<int>(l * kvh_n + kvh);
            auto msg = comm.recv(src, tag);
            assert(msg.size() == 2);
            // Row offset from the sender's own index map: route positions
            // need not equal global ranks on a double ring.
            const std::int64_t src_off =
                core::route_index_map(route, acfg, src).offset();
            out.cache.put_at(l, kvh, src_off, msg[0], msg[1]);
          }
        }
      }
      if (off + m == n) {
        out.last_hidden = x.copy_rows(m - 1, 1);
      } else {
        int owner = -1;
        for (int src = 1; src < world; ++src) {
          if (core::route_index_map(route, acfg, src).offset() + m == n) {
            owner = src;
            break;
          }
        }
        assert(owner > 0);
        out.last_hidden = comm.recv(owner, kTagHidden)[0];
      }
      out.cache.commit(n);
      out.first_token = model::argmax(
          model::logits_row(model::head_logits(w, out.last_hidden), 0));
    }
  });

  return out;
}

}  // namespace burst::serve
