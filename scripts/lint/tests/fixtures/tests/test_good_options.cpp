#include "sim/bad_options.hpp"
#include "sim/good_options.hpp"

int configure(burst::sim::GoodSpec* p) {
  burst::sim::GoodSpec spec;
  spec.assigned = 1;
  p->via_pointer = 2;
  spec.accumulated += 0.5;
  spec.nested.value = 3;
  spec.grown.push_back(4);
  spec.indexed[1] = 5;
  const burst::sim::ProbeConfig probe;
  return spec.assigned + (probe.read_elsewhere == 3 ? 1 : 0);
}
