#include "sim/good_options.hpp"

int pair_sum() {
  const auto p = burst::sim::PairInputs{1, 2};
  return p.first + p.second;
}
