#include "sim/good_decls.hpp"

int check() { return burst::sim::test_only_helper(2); }
