#include "sim/good_decls.hpp"

int baseline() { return burst::sim::reference_sum(1, 2); }
