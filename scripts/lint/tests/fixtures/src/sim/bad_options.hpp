#pragma once

namespace burst::sim {

// Written nowhere, written only by this module's own .cpp, and only read
// elsewhere: all three are constants in disguise.
struct ProbeConfig {
  int never_set = 1;
  double set_only_in_own_cpp = 2.0;
  int read_elsewhere = 3;
  static constexpr int kLimit = 4;  // static: never a candidate
  int limit() const { return kLimit; }
};

// Reliability is an option struct whatever its name says.
struct Reliability {
  int unset_attempts = 4;
};

}  // namespace burst::sim
