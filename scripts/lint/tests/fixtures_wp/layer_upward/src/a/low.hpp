#pragma once
#include "b/high.hpp"
// burst-lint: allow(orphan-decl) this root isolates layer-dag
inline int low_uses_high() { return high_helper(); }
