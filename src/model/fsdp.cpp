#include "model/fsdp.hpp"

#include <stdexcept>
#include <string>

#include "sim/phase_metrics.hpp"

namespace burst::model {

using tensor::Tensor;

namespace {

Tensor shard_of(const Tensor& full, int world, int rank) {
  if (full.rows() % world != 0) {
    throw std::invalid_argument("FSDP: rows " + std::to_string(full.rows()) +
                                " not divisible by world " +
                                std::to_string(world));
  }
  const std::int64_t m = full.rows() / world;
  return full.copy_rows(rank * m, m);
}

}  // namespace

FsdpShards fsdp_shard(const ModelWeights& full, int world, int rank) {
  FsdpShards s;
  s.layers.resize(full.layers.size());
  for_each_param(
      [world, rank](Tensor& shard, const Tensor& t) {
        shard = shard_of(t, world, rank);
      },
      s, full);
  return s;
}

FsdpShards fsdp_reduce_scatter_grads(comm::Communicator& comm,
                                     const ModelGrads& full) {
  sim::ScopedPhaseMetrics phase(comm.transport(), "fsdp.reduce_scatter");
  FsdpShards out;
  out.layers.resize(full.layers.size());
  for_each_param(
      [&comm](Tensor& shard, const Tensor& g) {
        shard = comm.reduce_scatter_rows(g);
      },
      out, full);
  return out;
}

FsdpStepResult fsdp_train_step(comm::Communicator& comm, DistTrainConfig cfg,
                               const FsdpShards& shards,
                               const tensor::Tensor& tokens) {
  sim::ScopedPhaseMetrics phase(comm.transport(), "fsdp.step");
  // Functional simplification: gather everything up front. Real BMTrain
  // gathers block by block to bound transient memory; the communication
  // volume is identical and the perfmodel charges the block-level overlap.
  ModelWeights gathered = fsdp_gather_all(comm, shards);
  cfg.sync_grads = false;
  DistStepResult r = dist_train_step(comm, cfg, gathered, tokens);
  FsdpStepResult out;
  out.loss = r.loss;
  out.grad_shards = fsdp_reduce_scatter_grads(comm, r.grads);
  return out;
}

ModelWeights fsdp_gather_all(comm::Communicator& comm,
                             const FsdpShards& shards) {
  // One fsdp.gather phase per block (BMTrain's granularity), one for the
  // embedding and one for the LM head.
  const auto gather = [&comm](Tensor& full, const Tensor& shard) {
    full = comm.all_gather_rows(shard);
  };
  ModelWeights full;
  full.layers.resize(shards.layers.size());
  for (std::size_t l = 0; l < shards.layers.size(); ++l) {
    sim::ScopedPhaseMetrics phase(comm.transport(), "fsdp.gather");
    for_each_layer_param(gather, full.layers[l], shards.layers[l]);
  }
  {
    sim::ScopedPhaseMetrics phase(comm.transport(), "fsdp.gather");
    gather(full.w_embed, shards.w_embed);
  }
  {
    sim::ScopedPhaseMetrics phase(comm.transport(), "fsdp.gather");
    gather(full.w_head, shards.w_head);
  }
  return full;
}

}  // namespace burst::model
