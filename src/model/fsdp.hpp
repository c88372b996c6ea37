// Functional FSDP (ZeRO-3 style, BMTrain-like block granularity) over the
// simulated cluster.
//
// Each device permanently stores a 1/G row-shard of every parameter tensor.
// Before a layer is used its full parameters are materialized with a ring
// all-gather (charged to communication time and, transiently, to device
// memory); after backward, gradients are reduce-scattered so each device
// keeps only its shard's gradient. The optimizer then updates shards
// locally — no gradient all-reduce, exactly the paper's training setup
// ("we adopt the FSDP implementation from BMTrain").
//
// Requirements: every parameter tensor's row count divisible by the world
// size (true for the toy configs used in tests/examples).
#pragma once

#include "comm/communicator.hpp"
#include "model/dist_model.hpp"
#include "model/transformer.hpp"

namespace burst::model {

/// This device's row-shards of every parameter tensor.
using FsdpShards = ModelWeights;

/// Slices `full` into this rank's shards (every rank calls with identical
/// `full`, e.g. from a shared initialization seed). Throws
/// std::invalid_argument when a tensor's rows do not divide by `world`.
/// The shards permanently take 2 * param_count(shards) bytes (as-if bf16).
FsdpShards fsdp_shard(const ModelWeights& full, int world, int rank);

/// Reduce-scatters full gradients; returns this rank's gradient shards
/// (summed over devices).
FsdpShards fsdp_reduce_scatter_grads(comm::Communicator& comm,
                                     const ModelGrads& full);

/// Rebuilds the full replicated weights (for evaluation / tests).
ModelWeights fsdp_gather_all(comm::Communicator& comm,
                             const FsdpShards& shards);

struct FsdpStepResult {
  double loss = 0.0;
  FsdpShards grad_shards;  // this rank's reduce-scattered gradient shards
};

/// One FSDP training step: gather parameters, run the distributed step with
/// gradient synchronization disabled, reduce-scatter the gradients. Update
/// the local shards with apply_sgd or an AdamOptimizer built on them.
FsdpStepResult fsdp_train_step(comm::Communicator& comm,
                               DistTrainConfig cfg, const FsdpShards& shards,
                               const tensor::Tensor& tokens);

}  // namespace burst::model
