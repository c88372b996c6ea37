#pragma once
// burst-lint: allow(orphan-decl) this root isolates layer-dag
inline int base_helper() { return 3; }
