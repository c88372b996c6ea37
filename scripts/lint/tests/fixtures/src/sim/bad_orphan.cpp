#include "sim/bad_orphan.hpp"

namespace burst::sim {

int orphan_sum(int a, int b) { return a + b; }

}  // namespace burst::sim
