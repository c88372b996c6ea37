#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "comm/sim_transport.hpp"
#include "sim/cluster.hpp"
#include "tensor/ops.hpp"

namespace burst::core {
namespace {

using comm::Communicator;
using comm::RingOrder;
using sim::Cluster;
using sim::DeviceContext;
using sim::Topology;
using tensor::Tensor;

// --- route structure -------------------------------------------------------

TEST(SweepRoute, FlatHopsFollowRing) {
  SweepRoute r = SweepRoute::flat(comm::flat_ring(4));
  EXPECT_EQ(r.steps(), 4);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(r.hop_target(1, s), 2);
    EXPECT_EQ(r.hop_source(1, s), 0);
  }
}

TEST(SweepRoute, DoubleRingAlternatesIntraInter) {
  Topology topo = Topology::multi_node(2, 2);
  SweepRoute r = SweepRoute::double_ring(topo);
  // L = 2: hop after even visits intra, after odd visits inter (diagonal:
  // next node, slot+1).
  EXPECT_EQ(r.hop_target(0, 0), 1);  // intra within node 0
  EXPECT_EQ(r.hop_target(0, 1), 3);  // inter diagonal: node 1, slot 1
  EXPECT_EQ(r.hop_target(1, 1), 2);  // inter diagonal: node 1, slot 0
  EXPECT_EQ(r.hop_target(2, 0), 3);  // intra within node 1
}

// Each step's hops must form a permutation of the ranks, and following the
// hop sequence for `steps` hops must return to the start (closed Hamiltonian
// walk) — the structural requirements of the double ring.
TEST(SweepRoute, DoubleRingIsPermutationAndClosed) {
  for (auto [nodes, gpus] : std::vector<std::pair<int, int>>{
           {2, 2}, {2, 4}, {4, 2}, {3, 3}, {1, 4}, {4, 1}}) {
    Topology topo = Topology::multi_node(nodes, gpus);
    SweepRoute r = SweepRoute::double_ring(topo);
    const int g = topo.world_size();
    for (int s = 0; s < r.steps(); ++s) {
      std::set<int> targets;
      for (int rank = 0; rank < g; ++rank) {
        targets.insert(r.hop_target(rank, s));
        EXPECT_EQ(r.hop_target(r.hop_source(rank, s), s), rank);
      }
      EXPECT_EQ(targets.size(), static_cast<std::size_t>(g))
          << nodes << "x" << gpus << " step " << s;
    }
    for (int start = 0; start < g; ++start) {
      std::set<int> visited{start};
      int pos = start;
      for (int s = 0; s < r.steps(); ++s) {
        pos = r.hop_target(pos, s);
        if (s < r.steps() - 1) {
          visited.insert(pos);
        }
      }
      EXPECT_EQ(pos, start) << "walk from " << start << " not closed";
      EXPECT_EQ(visited.size(), static_cast<std::size_t>(g))
          << "walk from " << start << " not Hamiltonian";
    }
  }
}

// The grids below have two levels (nodes > 1 and gpus > 1); a hop after
// visit s is inter-node exactly when (s + 1) % gpus == 0.
const std::vector<std::pair<int, int>> kTwoLevelGrids = {
    {2, 2}, {2, 4}, {4, 2}, {3, 3}};

// Figure 4's intra-node ring, read off the route: every other hop stays on
// the sender's node, and one round of L - 1 of them walks a bundle over all
// L GPUs of that node once.
TEST(SweepRoute, DoubleRingIntraRoundCoversOneNode) {
  for (auto [nodes, gpus] : kTwoLevelGrids) {
    Topology topo = Topology::multi_node(nodes, gpus);
    SweepRoute r = SweepRoute::double_ring(topo);
    for (int round = 0; round < nodes; ++round) {
      for (int start = 0; start < topo.world_size(); ++start) {
        std::set<int> walked{start};
        int pos = start;
        for (int s = round * gpus; s < round * gpus + gpus - 1; ++s) {
          pos = r.hop_target(pos, s);
          EXPECT_TRUE(topo.same_node(pos, start))
              << nodes << "x" << gpus << " step " << s << " from " << start;
          walked.insert(pos);
        }
        EXPECT_EQ(walked.size(), static_cast<std::size_t>(gpus))
            << nodes << "x" << gpus << " round " << round << " from "
            << start;
      }
    }
  }
}

// Figure 4's inter-node level: in an inter hop every GPU of a node sends to
// the next node, and the L bundles land on L distinct local slots, so all
// of a node's rails carry one bundle each at the same time.
TEST(SweepRoute, DoubleRingInterHopUsesEveryRailOnce) {
  for (auto [nodes, gpus] : kTwoLevelGrids) {
    Topology topo = Topology::multi_node(nodes, gpus);
    SweepRoute r = SweepRoute::double_ring(topo);
    for (int s = gpus - 1; s < r.steps(); s += gpus) {
      for (int node = 0; node < nodes; ++node) {
        std::set<int> slots;
        for (int slot = 0; slot < gpus; ++slot) {
          const int target = r.hop_target(node * gpus + slot, s);
          EXPECT_EQ(topo.node_of(target), (node + 1) % nodes)
              << nodes << "x" << gpus << " step " << s;
          slots.insert(topo.local_rank(target));
        }
        EXPECT_EQ(slots.size(), static_cast<std::size_t>(gpus))
            << nodes << "x" << gpus << " step " << s << " node " << node;
      }
    }
  }
}

// A closed walk of G = N * L hops crosses a node boundary exactly N times,
// once per round; the other N * (L - 1) hops stay on NVLink.
TEST(SweepRoute, DoubleRingCrossesNodesOncePerRound) {
  for (auto [nodes, gpus] : kTwoLevelGrids) {
    Topology topo = Topology::multi_node(nodes, gpus);
    SweepRoute r = SweepRoute::double_ring(topo);
    for (int start = 0; start < topo.world_size(); ++start) {
      int crossings = 0;
      int pos = start;
      for (int s = 0; s < r.steps(); ++s) {
        const int next = r.hop_target(pos, s);
        crossings += topo.same_node(pos, next) ? 0 : 1;
        pos = next;
      }
      EXPECT_EQ(crossings, nodes) << nodes << "x" << gpus << " from " << start;
    }
  }
}

// Grids with one level (a single node, or one GPU per node) have no inner
// ring to join: the route is the flat ring 0 -> 1 -> ... -> G-1 -> 0.
TEST(SweepRoute, DoubleRingOnOneLevelGridIsFlatRing) {
  for (const Topology& topo :
       {Topology::single_node(4), Topology::multi_node(1, 4),
        Topology::multi_node(4, 1)}) {
    SweepRoute r = SweepRoute::double_ring(topo);
    const int g = topo.world_size();
    EXPECT_EQ(r.steps(), g);
    for (int s = 0; s < r.steps(); ++s) {
      for (int rank = 0; rank < g; ++rank) {
        EXPECT_EQ(r.hop_target(rank, s), (rank + 1) % g);
        EXPECT_EQ(r.hop_source(rank, s), (rank + g - 1) % g);
      }
    }
  }
}

// --- activation sweep -------------------------------------------------------

void expect_activation_visits_all(Cluster& cluster, const SweepRoute& route) {
  const int g = route.size();
  std::vector<std::vector<int>> seen(static_cast<std::size_t>(g));
  std::mutex mu;
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    Tensor own = Tensor::full(2, 2, static_cast<float>(ctx.rank()));
    ring_sweep_activation(
        comm, route, SweepOptions{}, {own},
        [&](const std::vector<Tensor>& ts, int origin) {
          EXPECT_FLOAT_EQ(ts[0](0, 0), static_cast<float>(origin));
          std::lock_guard lock(mu);
          seen[static_cast<std::size_t>(ctx.rank())].push_back(origin);
        });
  });
  for (int r = 0; r < g; ++r) {
    std::set<int> uniq(seen[static_cast<std::size_t>(r)].begin(),
                       seen[static_cast<std::size_t>(r)].end());
    EXPECT_EQ(uniq.size(), static_cast<std::size_t>(g)) << "rank " << r;
    EXPECT_EQ(seen[static_cast<std::size_t>(r)].front(), r)
        << "first visit must be own shard";
  }
}

TEST(ActivationSweep, FlatVisitsEveryShardOnce) {
  Cluster cluster({Topology::single_node(4)});
  expect_activation_visits_all(cluster, SweepRoute::flat(comm::flat_ring(4)));
}

TEST(ActivationSweep, DoubleRingVisitsEveryShardOnce) {
  Topology topo = Topology::multi_node(2, 4);
  Cluster cluster({topo});
  expect_activation_visits_all(cluster, SweepRoute::double_ring(topo));
}

TEST(ActivationSweep, SubgroupRing) {
  // Only ranks {1, 3} sweep; ranks 0 and 2 stay idle.
  Cluster cluster({Topology::single_node(4)});
  cluster.run([&](DeviceContext& ctx) {
    if (ctx.rank() % 2 == 0) {
      return;
    }
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    SweepRoute route = SweepRoute::flat(RingOrder({1, 3}));
    Tensor own = Tensor::full(1, 1, static_cast<float>(ctx.rank()));
    int visits = 0;
    ring_sweep_activation(comm, route, SweepOptions{}, {own},
                          [&](const std::vector<Tensor>&, int) { ++visits; });
    EXPECT_EQ(visits, 2);
  });
}

TEST(ActivationSweep, SingleDeviceVisitsSelfOnly) {
  Cluster cluster({Topology::single_node(1)});
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    int visits = 0;
    ring_sweep_activation(comm, SweepRoute::flat(comm::flat_ring(1)),
                          SweepOptions{}, {Tensor::zeros(1, 1)},
                          [&](const std::vector<Tensor>&, int origin) {
                            EXPECT_EQ(origin, 0);
                            ++visits;
                          });
    EXPECT_EQ(visits, 1);
  });
}

// --- gradient sweep ----------------------------------------------------------

// Every device contributes f(visitor, origin) = visitor*100 + origin to each
// accumulator; the returned accumulator must hold the sum over all visitors.
void expect_gradient_accumulation(Cluster& cluster, const SweepRoute& route) {
  const int g = route.size();
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    Tensor imm = Tensor::full(1, 1, static_cast<float>(ctx.rank()));
    Tensor acc = Tensor::zeros(1, 1);
    std::vector<Tensor> returned = ring_sweep_gradient(
        comm, route, SweepOptions{}, {imm}, {acc},
        [&](const std::vector<Tensor>& ts, int origin) {
          EXPECT_FLOAT_EQ(ts[0](0, 0), static_cast<float>(origin));
          Tensor c = Tensor::full(
              1, 1, static_cast<float>(ctx.rank() * 100 + origin));
          return std::vector<Tensor>{std::move(c)};
        });
    float expected = 0.0f;
    for (int visitor = 0; visitor < g; ++visitor) {
      expected += static_cast<float>(visitor * 100 + ctx.rank());
    }
    EXPECT_FLOAT_EQ(returned[0](0, 0), expected) << "rank " << ctx.rank();
  });
}

TEST(GradientSweep, FlatAccumulatesAllContributions) {
  Cluster cluster({Topology::single_node(4)});
  expect_gradient_accumulation(cluster, SweepRoute::flat(comm::flat_ring(4)));
}

TEST(GradientSweep, DoubleRingAccumulatesAllContributions) {
  Topology topo = Topology::multi_node(2, 3);
  Cluster cluster({topo});
  expect_gradient_accumulation(cluster, SweepRoute::double_ring(topo));
}

TEST(GradientSweep, SingleDevice) {
  Cluster cluster({Topology::single_node(1)});
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    auto returned = ring_sweep_gradient(
        comm, SweepRoute::flat(comm::flat_ring(1)), SweepOptions{},
        {Tensor::zeros(1, 1)}, {Tensor::zeros(1, 1)},
        [&](const std::vector<Tensor>&, int) {
          return std::vector<Tensor>{Tensor::full(1, 1, 7.0f)};
        });
    EXPECT_FLOAT_EQ(returned[0](0, 0), 7.0f);
  });
}

// A one-member ring has no link: the accumulator never leaves its rank, so
// the sweep returns own_accum plus the one contribution and sends nothing.
TEST(GradientSweep, OneMemberRingSendsNothing) {
  Cluster cluster({Topology::single_node(2)});
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    const int r = ctx.rank();
    auto returned = ring_sweep_gradient(
        comm, SweepRoute::flat(RingOrder({r})), SweepOptions{},
        {Tensor::zeros(1, 1)}, {Tensor::full(1, 1, 5.0f)},
        [&](const std::vector<Tensor>&, int origin) {
          EXPECT_EQ(origin, r);
          return std::vector<Tensor>{Tensor::full(1, 1, 7.0f)};
        });
    EXPECT_FLOAT_EQ(returned[0](0, 0), 12.0f);
  });
  for (const auto& s : cluster.stats()) {
    EXPECT_EQ(s.messages_sent, 0u);
  }
}

// --- zero-copy payloads ------------------------------------------------------

// On SimTransport a sweep hop shares its bundle instead of copying it: every
// rank's visit of origin r's shard reads the very storage rank r built (the
// activation sweep's bundles, or the gradient sweep's immutable part).
void expect_visits_share_origin_storage(bool gradient) {
  const Topology topo = Topology::multi_node(2, 2);
  const int g = topo.world_size();
  const SweepRoute route = SweepRoute::double_ring(topo);
  Cluster cluster({topo});
  // own[r][i]: data() of rank r's i-th shard tensor, set before its sweep
  // starts (so before any peer can receive the shard).
  std::vector<std::vector<const float*>> own(static_cast<std::size_t>(g));
  std::atomic<int> visits{0};
  std::atomic<int> copied{0};
  cluster.run([&](DeviceContext& ctx) {
    comm::SimTransport comm_tp(ctx);
    Communicator comm(comm_tp);
    const float r = static_cast<float>(ctx.rank());
    std::vector<Tensor> shard;
    shard.push_back(Tensor::full(4, 2, r));
    shard.push_back(Tensor::full(1, 3, r));
    for (const Tensor& t : shard) {
      own[static_cast<std::size_t>(ctx.rank())].push_back(t.data());
    }
    const auto check = [&](const std::vector<Tensor>& ts, int origin) {
      visits.fetch_add(1);
      const auto& want = own[static_cast<std::size_t>(origin)];
      for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].data() != want.at(i)) {
          copied.fetch_add(1);
        }
      }
    };
    if (gradient) {
      ring_sweep_gradient(comm, route, SweepOptions{}, std::move(shard),
                          {Tensor::zeros(1, 1)},
                          [&](const std::vector<Tensor>& ts, int origin) {
                            check(ts, origin);
                            return std::vector<Tensor>{Tensor::zeros(1, 1)};
                          });
    } else {
      ring_sweep_activation(comm, route, SweepOptions{}, std::move(shard),
                            check);
    }
  });
  EXPECT_EQ(visits.load(), g * g);
  EXPECT_EQ(copied.load(), 0) << "a hop copied its payload";
}

TEST(ZeroCopySweep, ActivationHopsShareOriginStorage) {
  expect_visits_share_origin_storage(/*gradient=*/false);
}

TEST(ZeroCopySweep, GradientImmutableHopsShareOriginStorage) {
  expect_visits_share_origin_storage(/*gradient=*/true);
}

// --- timing properties -------------------------------------------------------

// Overlapped sweeps must never be slower than serialized ones, and when
// compute dominates they should approach sum(compute) rather than
// sum(compute) + sum(comm).
TEST(SweepTiming, OverlapReducesActivationMakespan) {
  Cluster::Config cfg;
  cfg.topo = Topology::single_node(4);
  cfg.topo.intra = {1e-5, 1e9};
  cfg.flops_per_s = 1e9;
  Cluster cluster(cfg);

  const auto run_once = [&](bool overlap) {
    SweepOptions opt;
    opt.overlap = overlap;
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      Communicator comm(comm_tp);
      Tensor own = Tensor::zeros(512, 64);  // 64 KiB wire -> 64 us per hop
      ring_sweep_activation(comm, SweepRoute::flat(comm::flat_ring(4)), opt,
                            {own}, [&](const std::vector<Tensor>&, int) {
                              ctx.compute(2e5);  // 200 us per visit
                            });
    });
    return cluster.makespan();
  };

  const double serialized = run_once(false);
  const double overlapped = run_once(true);
  EXPECT_LT(overlapped, serialized);
  // 4 visits x 200us compute dominates; overlapped should sit near 800us.
  EXPECT_LT(overlapped, 900e-6);
  EXPECT_GT(serialized, overlapped + 100e-6);
}

// On a 2-node topology with a slow inter-node link, the double ring (which
// sends only 1/L of hops over the slow link) must beat the flat ring, whose
// every step is gated by the slow boundary hop.
TEST(SweepTiming, DoubleRingBeatsFlatRingAcrossSlowLinks) {
  Cluster::Config cfg;
  cfg.topo = Topology::multi_node(2, 4);
  cfg.topo.intra = {1e-6, 100e9};
  cfg.topo.inter = {5e-6, 5e9};  // 20x slower
  cfg.flops_per_s = 1e15;        // negligible compute: isolate comm
  Cluster cluster(cfg);

  const auto run_route = [&](const SweepRoute& route) {
    cluster.run([&](DeviceContext& ctx) {
      comm::SimTransport comm_tp(ctx);
      Communicator comm(comm_tp);
      Tensor own = Tensor::zeros(4096, 64);  // 512 KiB wire
      ring_sweep_activation(comm, route, SweepOptions{}, {own},
                            [&](const std::vector<Tensor>&, int) {});
    });
    return cluster.makespan();
  };

  const double flat = run_route(SweepRoute::flat(comm::flat_ring(8)));
  const double dbl = run_route(SweepRoute::double_ring(cfg.topo));
  EXPECT_LT(dbl, flat);
}

}  // namespace
}  // namespace burst::core
