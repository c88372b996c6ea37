#pragma once

namespace burst::sim {

// Declared here, defined in bad_orphan.cpp, called by nobody.
int orphan_sum(int a, int b);

// Inline, and named only inside its own body.
inline int orphan_countdown(int n) {
  return n <= 0 ? 0 : orphan_countdown(n - 1);
}

}  // namespace burst::sim
