// Communication-volume accounting tests: the paper's headline byte counts,
// asserted against the registry's per-rank, per-phase counters rather than
// derived formulas.
//
//   * BurstAttention's backward (Algorithm 2) circulates exactly 3Nd + 2N
//     bytes per rank (Q, dO, Lse, D immutably plus the dQ accumulator),
//     vs RingAttention's 4Nd (K, V plus the dK/dV accumulators) — the ~25%
//     backward saving of Section 3.1.
//   * Both forwards circulate 2Nd (K and V).
//   * A training step's sweeps carry every head at once, so under GQA the
//     K/V-side volumes (the forward, Ring's backward) shrink with d_kv.
//   * The topology-aware double ring splits traffic so far fewer bytes cross
//     the inter-node links than a flat ring (Table 1's premise).
//   * A step whose checkpoint stores every attention output runs no
//     recompute sweep: it sends what the step without checkpointing sends.
//   * Attaching a registry is observation-only: results and the virtual
//     clock are bitwise identical with and without one.
//
// All runs use Communicator(ctx, 1.0) so one element is one wire byte, and
// exact integer equality applies. Frame headers and bundle metadata are
// control plane and excluded from wire accounting by design.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ios>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "core/dist_attention.hpp"
#include "core/partition.hpp"
#include "model/dist_model.hpp"
#include "model/transformer.hpp"
#include "obs/metrics.hpp"
#include "pin.hpp"
#include "sim/cluster.hpp"
#include "tensor/rng.hpp"

namespace burst::core {
namespace {

using comm::Communicator;
using sim::Cluster;
using sim::DeviceContext;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

constexpr std::int64_t kN = 128;  // global sequence length
constexpr std::int64_t kD = 16;   // head dimension

struct RunResult {
  Tensor o, dq, dk, dv;       // rank-0 shard outputs (for bitwise checks)
  double makespan = 0.0;
};

// Runs one distributed forward+backward; per-phase byte counters land in
// `reg` when non-null. `route_kind`: "flat" or "double".
RunResult run_attention(const Topology& topo, BackwardComm backward,
                        const std::string& route_kind, obs::Registry* reg) {
  const int g = topo.world_size();
  Cluster::Config cc;
  cc.topo = topo;
  cc.metrics = reg;
  Cluster cluster(cc);

  Rng rng(11);
  const Tensor q = rng.gaussian(kN, kD, 0.8f);
  const Tensor k = rng.gaussian(kN, kD, 0.8f);
  const Tensor v = rng.gaussian(kN, kD, 0.8f);
  const Tensor d_out = rng.gaussian(kN, kD, 0.8f);

  RunResult out;
  std::mutex mu;
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp, /*wire_bytes_per_element=*/1.0);
    const SweepRoute route = route_kind == "double"
                                 ? SweepRoute::double_ring(topo)
                                 : SweepRoute::flat(comm::flat_ring(g));
    DistAttnConfig cfg;
    cfg.mask = kernels::MaskSpec::causal();
    cfg.scale = 1.0f / std::sqrt(static_cast<float>(kD));
    cfg.balance = Balance::kZigzag;
    cfg.backward = backward;
    cfg.seq_len = kN;
    const auto map = route_index_map(route, cfg, ctx.rank());
    LocalQKV local{shard_rows(q, map), shard_rows(k, map),
                   shard_rows(v, map)};
    auto fwd = dist_attention_forward(comm, route, cfg, local);
    auto grads = dist_attention_backward(comm, route, cfg, local, fwd,
                                         shard_rows(d_out, map));
    if (ctx.rank() == 0) {
      std::lock_guard lock(mu);
      out.o = std::move(fwd.o);
      out.dq = std::move(grads.dq);
      out.dk = std::move(grads.dk);
      out.dv = std::move(grads.dv);
    }
  });
  out.makespan = cluster.makespan();
  return out;
}

std::uint64_t phase_bytes(obs::Registry& reg, const std::string& phase,
                          int rank) {
  return reg
      .counter(obs::labeled(phase + ".bytes",
                            {{"rank", std::to_string(rank)}}))
      .value();
}

// Bytes a rank hands to the sweep but never sends because the first visit is
// its own shard (the sweep starts locally, so each bundle takes G-1 hops).
// Adding one bundle's worth back converts "sent" into the full per-rank
// circulated volume the paper counts.
std::uint64_t one_bundle(std::uint64_t per_hop) { return per_hop; }

TEST(CommBytes, BurstBackwardIs3Nd2NPerRank) {
  const int g = 4;
  const std::int64_t n = kN / g;  // per-rank shard rows
  obs::Registry reg;
  run_attention(Topology::single_node(g), BackwardComm::kBurst, "flat", &reg);

  // Immutable bundle: Q (n*d) + dO (n*d) + Lse (n) + D (n); accumulator: dQ.
  const std::uint64_t imm = static_cast<std::uint64_t>(2 * n * kD + 2 * n);
  const std::uint64_t acc = static_cast<std::uint64_t>(n * kD);
  const std::uint64_t expect_sent = (g - 1) * imm + g * acc;
  for (int r = 0; r < g; ++r) {
    const std::uint64_t sent = phase_bytes(reg, "attn.backward", r);
    EXPECT_EQ(sent, expect_sent) << "rank " << r;
    // Sent plus the elided own-shard first hop is the paper's exact count.
    EXPECT_EQ(sent + one_bundle(imm),
              static_cast<std::uint64_t>(3 * kN * kD + 2 * kN))
        << "rank " << r;
    EXPECT_EQ(reg.counter(obs::labeled("attn.backward.calls",
                                       {{"rank", std::to_string(r)}}))
                  .value(),
              1u);
  }
}

TEST(CommBytes, RingBackwardIs4NdPerRank) {
  const int g = 4;
  const std::int64_t n = kN / g;
  obs::Registry reg;
  run_attention(Topology::single_node(g), BackwardComm::kRing, "flat", &reg);

  // Immutable bundle: K + V; accumulator: dK + dV. All n*d each.
  const std::uint64_t imm = static_cast<std::uint64_t>(2 * n * kD);
  const std::uint64_t acc = static_cast<std::uint64_t>(2 * n * kD);
  const std::uint64_t expect_sent = (g - 1) * imm + g * acc;
  for (int r = 0; r < g; ++r) {
    const std::uint64_t sent = phase_bytes(reg, "attn.backward", r);
    EXPECT_EQ(sent, expect_sent) << "rank " << r;
    EXPECT_EQ(sent + one_bundle(imm),
              static_cast<std::uint64_t>(4 * kN * kD))
        << "rank " << r;
  }
}

TEST(CommBytes, BurstBackwardBeatsRingByTheClaimedMargin) {
  // 3Nd + 2N < 4Nd whenever d > 2; at d=16 the saving is
  // 1 - (3*16+2)/(4*16) = 21.9%, approaching the paper's 25% as d grows.
  const double burst = 3.0 * kN * kD + 2.0 * kN;
  const double ring = 4.0 * kN * kD;
  EXPECT_LT(burst, ring);
  EXPECT_NEAR(1.0 - burst / ring, 0.25 - 2.0 / (4.0 * kD), 1e-12);
}

TEST(CommBytes, ForwardIs2NdPerRankForBothAlgorithms) {
  const int g = 4;
  const std::int64_t n = kN / g;
  for (BackwardComm backward : {BackwardComm::kBurst, BackwardComm::kRing}) {
    obs::Registry reg;
    run_attention(Topology::single_node(g), backward, "flat", &reg);
    const std::uint64_t imm = static_cast<std::uint64_t>(2 * n * kD);
    for (int r = 0; r < g; ++r) {
      const std::uint64_t sent = phase_bytes(reg, "attn.forward", r);
      EXPECT_EQ(sent, (g - 1) * imm) << "rank " << r;
      EXPECT_EQ(sent + one_bundle(imm),
                static_cast<std::uint64_t>(2 * kN * kD))
          << "rank " << r;
    }
  }
}

// Attention bytes one rank sends in a training step: L layers, each one
// forward sweep of every K/V head's K and V, and one backward sweep.
struct StepAttnBytes {
  std::uint64_t forward, backward;
};

std::vector<StepAttnBytes> train_step_attention_bytes(model::AttnImpl impl,
                                                      std::int64_t kv_heads,
                                                      int g) {
  model::DistTrainConfig cfg;
  cfg.model = model::ModelConfig::toy();
  cfg.model.d_model = 64;
  cfg.model.heads = 8;
  cfg.model.kv_heads = kv_heads;
  cfg.impl = impl;
  cfg.ckpt = CkptConfig{CkptStrategy::kNone, 0.0};  // no recompute sweep
  const model::ModelWeights w = model::ModelWeights::init(cfg.model, 5);
  Rng rng(7);
  const Tensor tokens = rng.token_ids(kN + 1, cfg.model.vocab);

  obs::Registry reg;
  Cluster::Config cc;
  cc.topo = Topology::single_node(g);
  cc.metrics = &reg;
  Cluster cluster(cc);
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp, /*wire_bytes_per_element=*/1.0);
    model::dist_train_step(comm, cfg, w, tokens);
  });
  std::vector<StepAttnBytes> out;
  for (int r = 0; r < g; ++r) {
    out.push_back({phase_bytes(reg, "attn.forward", r),
                   phase_bytes(reg, "attn.backward", r)});
  }
  return out;
}

// The step's sweeps carry every head at once, so each K/V head's shard
// travels once per hop: the closed forms hold per rank with d = d_model,
// H query heads and d_kv = kv_heads * d_h. Counting the elided own-shard
// hop, the backward is Algorithm 1's 4·N·d_kv and Algorithm 2's 3·N·d +
// 2·N·H, the volumes bench_ablation_gqa tabulates.
TEST(CommBytes, TrainStepAttentionMatchesClosedFormUnderGqa) {
  const int g = 4;
  const std::uint64_t gu = 4, layers = 2, big_n = kN, n = big_n / gu;
  const std::uint64_t d = 64, h = 8, dh = d / h;
  std::uint64_t ring_total[2] = {0, 0};  // MHA, kv = 2
  for (std::int64_t kv : {std::int64_t{8}, std::int64_t{2}}) {
    const std::uint64_t dkv = static_cast<std::uint64_t>(kv) * dh;
    for (model::AttnImpl impl : {model::AttnImpl::kBurst,
                                 model::AttnImpl::kRing}) {
      const bool ring = impl == model::AttnImpl::kRing;
      const std::uint64_t fwd_imm = 2 * n * dkv;
      const std::uint64_t bwd_imm = ring ? 2 * n * dkv : 2 * n * d + 2 * n * h;
      const std::uint64_t bwd_acc = ring ? 2 * n * dkv : n * d;
      const std::uint64_t bwd_paper =
          ring ? 4 * big_n * dkv : 3 * big_n * d + 2 * big_n * h;
      const auto bytes = train_step_attention_bytes(impl, kv, g);
      for (int r = 0; r < g; ++r) {
        const StepAttnBytes& b = bytes[static_cast<std::size_t>(r)];
        EXPECT_EQ(b.forward, layers * (gu - 1) * fwd_imm)
            << "kv " << kv << " ring " << ring << " rank " << r;
        EXPECT_EQ(b.backward, layers * ((gu - 1) * bwd_imm + gu * bwd_acc))
            << "kv " << kv << " ring " << ring << " rank " << r;
        EXPECT_EQ(b.backward / layers + bwd_imm, bwd_paper)
            << "kv " << kv << " ring " << ring << " rank " << r;
      }
      if (ring) {
        ring_total[kv == 2] = bytes[0].forward + bytes[0].backward;
      }
    }
  }
  // 4x GQA: Ring's K/V traffic is a quarter of MHA's.
  EXPECT_EQ(4 * ring_total[1], ring_total[0]);
}

// One training step's loss and gradient hash, and every rank's traffic.
struct StepTraffic {
  double loss = 0.0;
  std::uint64_t grads_fnv = 0;
  std::vector<std::uint64_t> bytes, messages;
};

StepTraffic train_step_traffic(model::AttnImpl impl, std::int64_t kv_heads,
                               const Topology& topo, const CkptConfig& ckpt) {
  model::DistTrainConfig cfg;
  cfg.model = model::ModelConfig::toy();
  cfg.model.kv_heads = kv_heads;
  cfg.model.use_rope = true;
  cfg.impl = impl;
  cfg.ckpt = ckpt;
  const model::ModelWeights w = model::ModelWeights::init(cfg.model, 5);
  Rng rng(7);
  const Tensor tokens = rng.token_ids(kN + 1, cfg.model.vocab);

  Cluster cluster({topo});
  StepTraffic out;
  std::mutex mu;
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp, /*wire_bytes_per_element=*/1.0);
    const model::DistStepResult r =
        model::dist_train_step(comm, cfg, w, tokens);
    if (ctx.rank() == 0) {
      Fnv h;
      model::for_each_param([&h](const Tensor& t) { h.tensor(t); }, r.grads);
      std::lock_guard lock(mu);
      out.loss = r.loss;
      out.grads_fnv = h.h;
    }
  });
  for (const auto& s : cluster.stats()) {
    out.bytes.push_back(s.bytes_sent);
    out.messages.push_back(s.messages_sent);
  }
  return out;
}

// Selective++ stores every attention output, and so does sequence-level
// selective checkpointing at store_fraction 1.0: the backward restores them
// and runs no recompute sweep, so every rank sends what the step without
// checkpointing sends. The loss and gradient bits were recorded while the
// recompute sweep still ran; they must not move.
TEST(CommBytes, StoredAttentionSkipsTheRecomputeSweep) {
  struct Case {
    const char* name;
    model::AttnImpl impl;
    std::int64_t kv_heads;
    Topology topo;
    double loss;
    std::uint64_t grads_fnv;
  };
  const Topology one = Topology::single_node(4);
  const Topology two = Topology::multi_node(2, 2);
  const std::vector<Case> cases = {
      {"burst-mha/1x4", model::AttnImpl::kBurst, 0, one, 0x1.1b751ap+2,
       0x92d2e16c306828e3ULL},
      {"ring-mha/1x4", model::AttnImpl::kRing, 0, one, 0x1.1b751ap+2,
       0x55f6dffad46e07d6ULL},
      {"burst-kv2/1x4", model::AttnImpl::kBurst, 2, one, 0x1.243cb2p+2,
       0xb57a34f6190ee58bULL},
      {"ring-kv2/1x4", model::AttnImpl::kRing, 2, one, 0x1.243cb2p+2,
       0x1bce03e8c530e804ULL},
      {"burst-mha/2x2", model::AttnImpl::kBurst, 0, two, 0x1.1b751ap+2,
       0x140fa66e9081a95bULL},
      {"ring-mha/2x2", model::AttnImpl::kRing, 0, two, 0x1.1b751ap+2,
       0x140fa66e9081a95bULL},
      {"burst-kv2/2x2", model::AttnImpl::kBurst, 2, two, 0x1.243cb2p+2,
       0x288c147b082ebc67ULL},
      {"ring-kv2/2x2", model::AttnImpl::kRing, 2, two, 0x1.243cb2p+2,
       0xd5ebb2264cc8bb4fULL},
  };
  for (const Case& c : cases) {
    const StepTraffic none = train_step_traffic(
        c.impl, c.kv_heads, c.topo, CkptConfig{CkptStrategy::kNone, 0.0});
    for (const CkptConfig& ckpt :
         {CkptConfig{CkptStrategy::kSelectivePP, 0.5},
          CkptConfig{CkptStrategy::kSeqSelective, 1.0}}) {
      const std::string tag =
          std::string(c.name) + " " + ckpt_name(ckpt.strategy);
      const StepTraffic got =
          train_step_traffic(c.impl, c.kv_heads, c.topo, ckpt);
      EXPECT_EQ(got.bytes, none.bytes) << tag;
      EXPECT_EQ(got.messages, none.messages) << tag;
      EXPECT_EQ(got.loss, c.loss) << tag << ": got " << std::hexfloat
                                  << got.loss;
      EXPECT_EQ(got.grads_fnv, c.grads_fnv)
          << tag << ": got 0x" << std::hex << got.grads_fnv;
    }
  }
}

TEST(CommBytes, DoubleRingMovesTrafficOffTheInterNodeLinks) {
  const Topology topo = Topology::multi_node(2, 2);
  obs::Registry flat_reg;
  run_attention(topo, BackwardComm::kBurst, "flat", &flat_reg);
  obs::Registry dbl_reg;
  run_attention(topo, BackwardComm::kBurst, "double", &dbl_reg);

  const auto link_bytes = [](obs::Registry& reg, const char* link) {
    return reg.counter(obs::labeled("comm.bytes", {{"link", link}})).value();
  };
  const std::uint64_t flat_inter = link_bytes(flat_reg, "inter");
  const std::uint64_t dbl_inter = link_bytes(dbl_reg, "inter");
  const std::uint64_t dbl_intra = link_bytes(dbl_reg, "intra");

  // The flat ring alternates nodes, so half its hops cross the slow links;
  // the topology-aware route keeps most hops inside a node (Table 1).
  EXPECT_GT(dbl_intra, 0u);
  EXPECT_GT(dbl_inter, 0u);
  EXPECT_LT(dbl_inter, flat_inter);
  // Same total volume either way: routing changes where bytes go, not how
  // many there are.
  EXPECT_EQ(link_bytes(flat_reg, "intra") + flat_inter,
            dbl_intra + dbl_inter);
}

TEST(CommBytes, PerRankAndAggregateCountersAgree) {
  const int g = 4;
  obs::Registry reg;
  run_attention(Topology::multi_node(2, 2), BackwardComm::kBurst, "double",
                &reg);
  for (const char* link : {"intra", "inter"}) {
    std::uint64_t per_rank_sum = 0;
    for (int r = 0; r < g; ++r) {
      per_rank_sum +=
          reg.counter(obs::labeled("comm.bytes", {{"link", link},
                                                  {"rank", std::to_string(r)}}))
              .value();
    }
    EXPECT_EQ(per_rank_sum,
              reg.counter(obs::labeled("comm.bytes", {{"link", link}})).value())
        << link;
  }
}

TEST(CommBytes, RegistryIsObservationOnly) {
  // The disabled path must cost exactly zero: same results bit for bit,
  // same virtual makespan, whether or not a registry is attached.
  const Topology topo = Topology::multi_node(2, 2);
  obs::Registry reg;
  const RunResult with = run_attention(topo, BackwardComm::kBurst, "double",
                                       &reg);
  const RunResult without = run_attention(topo, BackwardComm::kBurst,
                                          "double", nullptr);

  EXPECT_DOUBLE_EQ(with.makespan, without.makespan);
  const auto bitwise_equal = [](const Tensor& a, const Tensor& b) {
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
               0;
  };
  EXPECT_TRUE(bitwise_equal(with.o, without.o));
  EXPECT_TRUE(bitwise_equal(with.dq, without.dq));
  EXPECT_TRUE(bitwise_equal(with.dk, without.dk));
  EXPECT_TRUE(bitwise_equal(with.dv, without.dv));
}

}  // namespace
}  // namespace burst::core
