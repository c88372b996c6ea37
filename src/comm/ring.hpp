// Ring orderings over cluster ranks.
//
// RingOrder is an ordered cycle of ranks; flat_ring is the global ring of
// vanilla RingAttention. The topology-aware double ring of Figure 4 (the
// intra-node NVLink rings joined by one InfiniBand rail per local rank) is
// core::SweepRoute::double_ring, which derives its hops from the grid.
#pragma once

#include <utility>
#include <vector>

namespace burst::comm {

/// An ordered cycle of ranks. next_of/prev_of navigate the cycle.
class RingOrder {
 public:
  explicit RingOrder(std::vector<int> order) : order_(std::move(order)) {
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (static_cast<std::size_t>(order_[i]) >= pos_.size()) {
        pos_.resize(static_cast<std::size_t>(order_[i]) + 1, -1);
      }
      pos_[static_cast<std::size_t>(order_[i])] = static_cast<int>(i);
    }
  }

  int size() const { return static_cast<int>(order_.size()); }
  const std::vector<int>& ranks() const { return order_; }
  bool contains(int rank) const {
    return rank >= 0 && static_cast<std::size_t>(rank) < pos_.size() &&
           pos_[static_cast<std::size_t>(rank)] >= 0;
  }
  /// Position of `rank` within the cycle.
  int index_of(int rank) const { return pos_[static_cast<std::size_t>(rank)]; }
  int next_of(int rank) const {
    const int i = index_of(rank);
    return order_[static_cast<std::size_t>((i + 1) % size())];
  }
  int prev_of(int rank) const {
    const int i = index_of(rank);
    return order_[static_cast<std::size_t>((i + size() - 1) % size())];
  }

 private:
  std::vector<int> order_;
  std::vector<int> pos_;
};

/// The flat ring 0 -> 1 -> ... -> G-1 -> 0.
RingOrder flat_ring(int world_size);

}  // namespace burst::comm
