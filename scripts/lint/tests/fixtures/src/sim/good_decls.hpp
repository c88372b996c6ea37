#pragma once

namespace burst::sim {

// Only a test calls it: still a use.
int test_only_helper(int x);

// The reference a bench compares against: still a use.
int reference_sum(int a, int b);

// Named only by the read-only perfbench/ tree: still a use.
template <typename T>
T perfbench_probe(T x) {
  return x;
}

// Not free functions at namespace scope, so never candidates.
struct Widget {
  int never_called() const;
};
inline constexpr int kWidgets = 3;
using Handler = int (*)(int);

}  // namespace burst::sim
