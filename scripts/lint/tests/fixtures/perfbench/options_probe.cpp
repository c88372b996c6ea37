#include "sim/good_options.hpp"

burst::sim::GoodSpec designated_spec() {
  return burst::sim::GoodSpec{.designated = 1};
}
