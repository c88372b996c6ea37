#include "sim/good_decls.hpp"

int probe() { return burst::sim::perfbench_probe(7); }
