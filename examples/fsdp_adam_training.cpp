// The paper's full training stack, end to end on the simulator:
//   FSDP parameter sharding (ZeRO-3) + Adam with optimizer offload
//   + BurstAttention with zigzag balance + sequence-level selective
//   checkpointing + fused LM head.
//
// Each device permanently stores 1/G of the weights; full layers are
// gathered on the fly; gradients are reduce-scattered; Adam updates the
// local shard only. Compare the printed per-device memory to what the
// replicated setup would hold.
#include <cstdint>
#include <cstdio>
#include <mutex>

#include "comm/communicator.hpp"
#include "comm/sim_transport.hpp"
#include "model/fsdp.hpp"
#include "model/optimizer.hpp"
#include "model/transformer.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster.hpp"
#include "tensor/rng.hpp"

int main() {
  using namespace burst;

  model::ModelConfig cfg = model::ModelConfig::toy();
  model::ModelWeights init = model::ModelWeights::init(cfg, 42);

  model::DistTrainConfig dc;
  dc.model = cfg;
  dc.impl = model::AttnImpl::kBurst;
  dc.balance = core::Balance::kZigzag;
  dc.ckpt = {core::CkptStrategy::kSeqSelective, 0.5};
  dc.fused_lm_head = true;

  const int g = 4;
  // Metrics registry: the FSDP loop reports per-phase bytes and timings
  // (fsdp.gather / fsdp.reduce_scatter / fsdp.step) through it.
  obs::Registry metrics;
  sim::Cluster::Config cc;
  cc.topo = sim::Topology::single_node(g);
  cc.metrics = &metrics;
  sim::Cluster cluster(cc);
  tensor::Rng rng(7);
  tensor::Tensor tokens = rng.token_ids(33, cfg.vocab);

  std::printf("FSDP + Adam (offloaded) + BurstAttention on %d simulated "
              "GPUs\n\n", g);
  std::printf("%-5s %-12s\n", "step", "loss");

  std::mutex mu;
  std::uint64_t shard_bytes = 0;
  cluster.run([&](sim::DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    comm::Communicator comm(comm_tp);
    model::FsdpShards shards = model::fsdp_shard(init, g, ctx.rank());
    // Adam state sized to the local shards, held off-device.
    model::AdamOptimizer adam(shards, {0.02f, /*offload=*/true}, &ctx.mem());
    for (int step = 0; step < 10; ++step) {
      auto r = model::fsdp_train_step(comm, dc, shards, tokens);
      adam.step(shards, r.grad_shards);
      if (ctx.rank() == 0) {
        std::lock_guard lock(mu);
        std::printf("%-5d %-12.6f\n", step, r.loss);
      }
    }
    if (ctx.rank() == 0) {
      std::lock_guard lock(mu);
      shard_bytes =
          2 * static_cast<std::uint64_t>(model::param_count(shards));
    }
  });

  std::printf("\nper-device parameter shard: %.1f KiB (1/%d of the model; "
              "replicated would hold %.1f KiB)\n",
              static_cast<double>(shard_bytes) / 1024.0, g,
              static_cast<double>(shard_bytes) * g / 1024.0);
  std::printf("Adam moments live host-side (ZeRO-Offload), so no 12x "
              "parameter bytes on device.\n");
  std::printf("\nper-phase comm accounting (rank 0, from the registry):\n");
  std::printf("  fsdp.gather         %llu bytes over %llu calls\n",
              static_cast<unsigned long long>(
                  metrics.counter("fsdp.gather.bytes{rank=0}").value()),
              static_cast<unsigned long long>(
                  metrics.counter("fsdp.gather.calls{rank=0}").value()));
  std::printf("  fsdp.reduce_scatter %llu bytes over %llu calls\n",
              static_cast<unsigned long long>(
                  metrics.counter("fsdp.reduce_scatter.bytes{rank=0}")
                      .value()),
              static_cast<unsigned long long>(
                  metrics.counter("fsdp.reduce_scatter.calls{rank=0}")
                      .value()));
  return 0;
}
