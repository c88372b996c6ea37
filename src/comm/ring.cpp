#include "comm/ring.hpp"

namespace burst::comm {

RingOrder flat_ring(int world_size) {
  std::vector<int> order(static_cast<std::size_t>(world_size));
  for (int i = 0; i < world_size; ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  return RingOrder(std::move(order));
}

}  // namespace burst::comm
