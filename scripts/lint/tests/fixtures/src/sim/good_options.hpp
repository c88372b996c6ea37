#pragma once

#include <vector>

namespace burst::sim {

struct Inner {
  int value = 0;
};

// Each member is written outside this header, one write form apiece.
struct GoodSpec {
  int assigned = 0;          // spec.assigned = ...
  int via_pointer = 0;       // p->via_pointer = ...
  double accumulated = 0.0;  // spec.accumulated += ...
  Inner nested;              // spec.nested.value = ...
  std::vector<int> grown;    // spec.grown.push_back(...)
  int indexed[2] = {0, 0};   // spec.indexed[1] = ...
  int designated = 0;        // GoodSpec{.designated = ...}
};

// Written only positionally: PairInputs{a, b} reaches both members.
struct PairInputs {
  int first = 0;
  int second = 0;
};

}  // namespace burst::sim
