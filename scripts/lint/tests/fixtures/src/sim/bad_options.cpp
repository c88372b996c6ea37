#include "sim/bad_options.hpp"

namespace burst::sim {

// The declaring module's own writes do not make a member an option.
ProbeConfig tuned_probe() {
  ProbeConfig cfg;
  cfg.set_only_in_own_cpp = 3.0;
  return cfg;
}

}  // namespace burst::sim
