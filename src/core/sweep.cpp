#include "core/sweep.hpp"

#include <cassert>

#include "obs/error.hpp"
#include "sim/clock.hpp"
#include "tensor/ops.hpp"

namespace burst::core {

using comm::Communicator;
using comm::RingOrder;
using sim::Event;
using tensor::Tensor;

SweepRoute SweepRoute::flat(RingOrder ring) {
  SweepRoute r;
  r.size_ = ring.size();
  r.ranks_ = ring.ranks();
  r.is_double_ = false;
  r.flat_.push_back(std::move(ring));
  return r;
}

SweepRoute SweepRoute::double_ring(const sim::Topology& topo) {
  if (topo.num_nodes == 1 || topo.gpus_per_node == 1) {
    return flat(comm::flat_ring(topo.world_size()));
  }
  SweepRoute r;
  r.size_ = topo.world_size();
  r.is_double_ = true;
  r.num_nodes_ = topo.num_nodes;
  r.gpus_per_node_ = topo.gpus_per_node;
  for (int rank = 0; rank < topo.world_size(); ++rank) {
    r.ranks_.push_back(rank);
  }
  return r;
}

bool SweepRoute::hop_is_inter(int step) const {
  // L-1 intra hops, then one inter hop, repeating.
  return (step + 1) % gpus_per_node_ == 0;
}

int SweepRoute::hop_target(int rank, int step) const {
  if (!is_double_) {
    return flat_.front().next_of(rank);
  }
  const int l = gpus_per_node_;
  const int node = rank / l;
  const int slot = rank % l;
  if (hop_is_inter(step)) {
    // Diagonal inter hop: (node, slot) -> (node+1, slot+1). Every round the
    // L-1 intra hops advance the slot by L-1; the +1 completes a full cycle,
    // so after num_nodes rounds each bundle is back home.
    return ((node + 1) % num_nodes_) * l + (slot + 1) % l;
  }
  return node * l + (slot + 1) % l;
}

int SweepRoute::hop_source(int rank, int step) const {
  if (!is_double_) {
    return flat_.front().prev_of(rank);
  }
  const int l = gpus_per_node_;
  const int node = rank / l;
  const int slot = rank % l;
  if (hop_is_inter(step)) {
    return ((node + num_nodes_ - 1) % num_nodes_) * l + (slot + l - 1) % l;
  }
  return node * l + (slot + l - 1) % l;
}

namespace {

// imm hop after visit s uses tag 2s, accum hop after visit s uses tag 2s+1.
int imm_tag(const SweepOptions& opt, int s) { return opt.tag_base + 2 * s; }
int acc_tag(const SweepOptions& opt, int s) { return opt.tag_base + 2 * s + 1; }

}  // namespace

void ring_sweep_activation(
    Communicator& comm, const SweepRoute& route, const SweepOptions& opt,
    std::vector<Tensor> own,
    const std::function<void(const std::vector<Tensor>&, int)>& visit) {
  comm::Transport& tp = comm.transport();
  const int me = tp.rank();
  const int steps = route.steps();

  // The bundle is held as a shared handle: forwarding it shares the
  // tensors with the next rank instead of copying them.
  Communicator::Bundle cur{tensor::SharedTensors(std::move(own)), me};
  Event ready = tp.record(sim::kCompute);  // own data just produced

  for (int s = 0; s < steps; ++s) {
    if (opt.overlap && s < steps - 1) {
      // Double buffering: forward before computing — activation hops never
      // wait on compute (Figure 5, top).
      const int dst = route.hop_target(me, s);
      const int stream = comm.stream_for(dst);
      tp.wait(stream, ready);
      comm.send_bundle(dst, imm_tag(opt, s), cur, stream);
    }
    tp.wait(sim::kCompute, ready);
    visit(*cur.payload, cur.origin);
    if (!opt.overlap && s < steps - 1) {
      // No double buffer: the exchange only starts once this step's compute
      // is done, serializing compute and communication.
      const int dst = route.hop_target(me, s);
      const int stream = comm.stream_for(dst);
      tp.wait(stream, tp.record(sim::kCompute));
      comm.send_bundle(dst, imm_tag(opt, s), cur, stream);
    }
    if (s < steps - 1) {
      const int src = route.hop_source(me, s);
      const int stream = comm.stream_for(src);
      cur = comm.recv_bundle(src, imm_tag(opt, s), stream);
      ready = tp.record(stream);
    }
    if (!opt.overlap) {
      tp.sync_all();
    }
  }
}

std::vector<Tensor> ring_sweep_gradient(
    Communicator& comm, const SweepRoute& route, const SweepOptions& opt,
    std::vector<Tensor> own_imm, std::vector<Tensor> own_accum,
    const std::function<std::vector<Tensor>(const std::vector<Tensor>&, int)>&
        visit) {
  comm::Transport& tp = comm.transport();
  const int me = tp.rank();
  const int steps = route.steps();

  Communicator::Bundle cur{tensor::SharedTensors(std::move(own_imm)), me};
  Event imm_ready = tp.record(sim::kCompute);

  for (int s = 0; s < steps; ++s) {
    if (opt.overlap && s < steps - 1) {
      const int dst = route.hop_target(me, s);
      const int stream = comm.stream_for(dst);
      tp.wait(stream, imm_ready);
      comm.send_bundle(dst, imm_tag(opt, s), cur, stream);
    }

    tp.wait(sim::kCompute, imm_ready);
    std::vector<Tensor> contrib = visit(*cur.payload, cur.origin);
    const Event computed = tp.record(sim::kCompute);

    // Fetch the accumulator matching this shard: local for our own shard
    // (step 0), else it trails the shard by one hop. Its sender moved it in
    // and kept no reference, so take() moves the tensors out.
    std::vector<Tensor> acc;
    if (s == 0) {
      acc = std::move(own_accum);
    } else {
      const int src = route.hop_source(me, s - 1);
      const int stream = comm.stream_for(src);
      Communicator::Bundle in =
          comm.recv_bundle(src, acc_tag(opt, s - 1), stream);
      tp.wait(sim::kCompute, tp.record(stream));
      if (in.origin != cur.origin) {
        throw burst::InvariantError(
            "gradient sweep: accumulator/shard mismatch");
      }
      acc = std::move(in.payload).take();
    }
    assert(acc.size() == contrib.size());
    for (std::size_t i = 0; i < contrib.size(); ++i) {
      tensor::add_inplace(acc[i], contrib[i]);
    }

    // Forward the accumulator along the edge its shard took when leaving us
    // (the hop after visit s); it carries our freshly-computed contribution,
    // so the send waits on compute — this is the one delayed dependency of
    // the gradient pipeline (Figure 5, bottom). A one-member route has no
    // link: its accumulator is already home and stays local.
    if (steps == 1) {
      own_accum = std::move(acc);
    } else {
      const int dst = route.hop_target(me, s);
      const int stream = comm.stream_for(dst);
      tp.wait(stream, computed);
      comm.send_bundle(
          dst, acc_tag(opt, s),
          Communicator::Bundle{tensor::SharedTensors(std::move(acc)),
                               cur.origin},
          stream);
    }

    if (!opt.overlap && s < steps - 1) {
      const int dst = route.hop_target(me, s);
      const int stream = comm.stream_for(dst);
      tp.wait(stream, computed);
      comm.send_bundle(dst, imm_tag(opt, s), cur, stream);
    }

    if (s < steps - 1) {
      const int src = route.hop_source(me, s);
      const int stream = comm.stream_for(src);
      cur = comm.recv_bundle(src, imm_tag(opt, s), stream);
      imm_ready = tp.record(stream);
    }
    if (!opt.overlap) {
      tp.sync_all();
    }
  }

  if (steps == 1) {
    return own_accum;
  }
  // Our own accumulator comes home after its final hop.
  const int src = route.hop_source(me, steps - 1);
  const int stream = comm.stream_for(src);
  Communicator::Bundle home =
      comm.recv_bundle(src, acc_tag(opt, steps - 1), stream);
  if (home.origin != me) {
    throw burst::InvariantError(
        "gradient sweep: returned accumulator is not ours");
  }
  tp.wait(sim::kCompute, tp.record(stream));
  return std::move(home.payload).take();
}

}  // namespace burst::core
