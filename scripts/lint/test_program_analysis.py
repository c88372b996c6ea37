#!/usr/bin/env python3
"""Self-tests for the whole-program tier of burst_lint.py.

Each analysis is proven on a fixture mini-root under tests/fixtures_wp/
(each root triggers exactly its own analysis, exactly once), the RAII
scope-tracking regression (sequential lock scopes are not a cycle) is
pinned, the baseline file round-trips, and the ProgramModel built over the
real repo tree is checked for the coverage the PR promises: the lock graph
sees parallel/thread_pool, the socket transport, and the serve engine.

Run directly (``python3 scripts/lint/test_program_analysis.py``) or via
ctest (test name ``lint_program_selftest``).
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES_WP = os.path.join(HERE, "tests", "fixtures_wp")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))

sys.path.insert(0, HERE)
import burst_lint  # noqa: E402


def run_lint(args):
    """Runs burst_lint.main, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = burst_lint.main(args)
    return rc, out.getvalue(), err.getvalue()


def lint_fixture_root(name, extra=()):
    root = os.path.join(FIXTURES_WP, name)
    return run_lint(["--root", root, *extra, root])


def build_repo_model():
    files = burst_lint.collect_files(REPO_ROOT, [])
    sources = [burst_lint.parse_source(p, REPO_ROOT) for p in files]
    return burst_lint.ProgramModel(REPO_ROOT, sources)


class TestAnalysisFixtures(unittest.TestCase):
    """Each fixture root triggers exactly its own analysis, exactly once."""

    def assert_fires(self, fixture, rule, expect_count=1):
        rc, _, err = lint_fixture_root(fixture)
        self.assertEqual(rc, 1, f"{fixture} should fail lint\nstderr: {err}")
        lines = [l for l in err.splitlines() if l.strip()]
        hits = [l for l in lines if f"[{rule}]" in l]
        self.assertEqual(
            len(hits), expect_count,
            f"expected {expect_count} {rule} finding(s) in {fixture}:\n{err}")
        # ...and nothing else fires: the fixture isolates one analysis.
        self.assertEqual(
            len(lines), expect_count,
            f"{fixture} triggered findings beyond {rule}:\n{err}")

    def test_include_cycle(self):
        self.assert_fires("layer_cycle", "layer-dag")

    def test_upward_layer_include(self):
        self.assert_fires("layer_upward", "layer-dag")

    def test_unused_include(self):
        self.assert_fires("layer_unused", "layer-dag")

    def test_lock_order_inversion(self):
        self.assert_fires("lock_inversion", "lock-order")

    def test_lock_order_inversion_through_call(self):
        self.assert_fires("lock_interproc", "lock-order")

    def test_cv_wait_without_predicate(self):
        self.assert_fires("cv_nopredicate", "lock-order")

    def test_catch_swallow(self):
        self.assert_fires("catch_swallow", "error-flow")

    def test_sequential_lock_scopes_are_not_a_cycle(self):
        # Two locks taken back-to-back in *sequential* scopes, plus the same
        # pair genuinely nested elsewhere, is a valid order — the analysis
        # must model RAII release at end of block, or Cluster::abort vs
        # Cluster::barrier_and_sync would be a false deadlock.
        rc, _, err = lint_fixture_root("lock_sequential")
        self.assertEqual(rc, 0, f"sequential scopes misread as nesting:\n{err}")

    def test_layer_analysis_inactive_without_manifest(self):
        # lock/catch fixtures carry no layers.json: the layer-dag analysis
        # is manifest-driven and must stay silent there (their include graphs
        # are not layered worlds, just single files).
        rc, _, err = lint_fixture_root("lock_sequential")
        self.assertNotIn("[layer-dag]", err)
        self.assertEqual(rc, 0, err)

    def test_list_rules_shows_whole_program_tier(self):
        rc, out, _ = run_lint(["--list-rules"])
        self.assertEqual(rc, 0)
        for name in ("layer-dag", "lock-order", "error-flow", "orphan-decl",
                     "unset-option"):
            self.assertIn(f"{name} [whole-program]:", out)
        # Per-file rules print without the tier marker.
        self.assertIn("\none-param-list: ", out)


class TestSuppression(unittest.TestCase):
    def test_inline_allow_silences_analysis_finding(self):
        with tempfile.TemporaryDirectory() as tmp:
            d = os.path.join(tmp, "src", "sim")
            os.makedirs(d)
            with open(os.path.join(d, "ok.cpp"), "w") as f:
                f.write(
                    "int work();\n"
                    "int f() {\n"
                    "  try {\n"
                    "    return work();\n"
                    "    // burst-lint: allow(error-flow) failure here means\n"
                    "    // the optional cache is cold; cold-start is fine\n"
                    "  } catch (...) {\n"
                    "  }\n"
                    "  return 0;\n"
                    "}\n")
            rc, _, err = run_lint(["--root", tmp, tmp])
            self.assertEqual(rc, 0, err)

    def test_analysis_names_are_known_to_directives(self):
        # A suppression naming an analysis must not be an unknown-rule
        # violation (the lint-directive rule covers both tiers).
        with tempfile.TemporaryDirectory() as tmp:
            d = os.path.join(tmp, "src", "sim")
            os.makedirs(d)
            with open(os.path.join(d, "tagged.cpp"), "w") as f:
                f.write("// burst-lint: allow-file(lock-order) single-lock\n"
                        "int x = 1;\n")
            rc, _, err = run_lint(["--root", tmp, tmp])
            self.assertEqual(rc, 0, err)


class TestBaseline(unittest.TestCase):
    def test_baseline_round_trip(self):
        # --write-baseline grandfathers the lock inversion; the next run is
        # clean and reports the finding as baselined.
        root = os.path.join(FIXTURES_WP, "lock_inversion")
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "baseline.json")
            rc, out, _ = run_lint(
                ["--root", root, "--baseline", baseline,
                 "--write-baseline", root])
            self.assertEqual(rc, 0, out)
            with open(baseline) as f:
                data = json.load(f)
            self.assertEqual(data["schema"], "burst.lint_baseline")
            self.assertEqual(len(data["findings"]), 1)
            entry = data["findings"][0]
            self.assertEqual(entry["rule"], "lock-order")
            self.assertNotIn("line", entry)  # stable key, no line numbers

            rc, out, err = run_lint(
                ["--root", root, "--baseline", baseline, root])
            self.assertEqual(rc, 0, err)
            self.assertIn("1 baselined", out)

    def test_stale_baseline_entry_is_a_violation(self):
        # A baseline entry matching nothing must fail the run, so the file
        # cannot rot after the underlying finding is fixed.
        root = os.path.join(FIXTURES_WP, "lock_sequential")  # clean root
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "baseline.json")
            with open(baseline, "w") as f:
                json.dump({
                    "schema": "burst.lint_baseline", "version": 1,
                    "findings": [{"rule": "lock-order",
                                  "path": "src/sim/gone.cpp",
                                  "key": "lock-cycle:a|b"}],
                }, f)
            rc, _, err = run_lint(
                ["--root", root, "--baseline", baseline, root])
            self.assertEqual(rc, 1, err)
            self.assertIn("stale baseline entry", err)
            self.assertIn("[lint-directive]", err)

    def test_repo_baseline_is_empty(self):
        # The acceptance bar: the real tree carries no grandfathered
        # whole-program findings — everything was fixed or suppressed with a
        # reason at the site.
        path = burst_lint.default_baseline_path(REPO_ROOT)
        with open(path) as f:
            data = json.load(f)
        self.assertEqual(data["findings"], [])


class TestRepoModelCoverage(unittest.TestCase):
    """The ProgramModel over the real tree sees what the PR promises."""

    @classmethod
    def setUpClass(cls):
        cls.model = build_repo_model()

    def test_lock_scope_covers_thread_pool(self):
        fns = {f.name for f in self.model.functions
               if f.path == "src/parallel/thread_pool.cpp"}
        for want in ("ThreadPool::run", "ThreadPool::work",
                     "ThreadPool::helper_loop"):
            self.assertIn(want, fns)
        locks = set()
        for f in self.model.functions:
            if f.path == "src/parallel/thread_pool.cpp":
                locks |= f.locks
        self.assertIn("ThreadPool::park_mu_", locks)

    def test_lock_scope_covers_socket_transport(self):
        fns = {f.short for f in self.model.functions
               if f.path.startswith("src/comm/socket_transport")}
        # The acceptor/deadline machinery is in view even though the
        # transport synchronizes by thread-join, not mutexes — if someone
        # adds locking there, the analysis picks it up with no config change.
        for want in ("accept_with_deadline", "dial", "recv_bytes"):
            self.assertIn(want, fns)

    def test_lock_scope_covers_serve_engine(self):
        fns = {f.name for f in self.model.functions
               if f.path == "src/serve/engine.cpp"}
        self.assertIn("Engine::run", fns)

    def test_cluster_lock_order_edge_is_modeled(self):
        # barrier_and_sync holds barrier_mutex_ while taking mail_mutex_ —
        # the one genuine nesting in the simulator; it must be in the graph
        # (and, with no reverse edge, must NOT be reported as a cycle).
        edge = ("Cluster::barrier_mutex_", "Cluster::mail_mutex_")
        self.assertIn(edge, self.model.lock_edges)
        self.assertNotIn(
            ("Cluster::mail_mutex_", "Cluster::barrier_mutex_"),
            self.model.lock_edges,
            "reverse edge would be a deadlock report; Cluster::abort's "
            "sequential scopes must not be misread as nesting")

    def test_every_cv_wait_in_tree_has_predicate(self):
        self.assertEqual(
            {"barrier_cv_", "park_cv_", "mail_cv_"},
            self.model.cv_names & {"barrier_cv_", "park_cv_", "mail_cv_"})
        findings = [f for f in burst_lint.ANALYSES["lock-order"].check(
            self.model) if "wait" in f.message]
        self.assertEqual(findings, [])

    def test_error_family_is_discovered(self):
        for want in ("Error", "InvariantError", "SnapshotCorruptError",
                     "CommTimeoutError", "DeviceOomError"):
            self.assertIn(want, self.model.error_family)

    def test_include_graph_resolves_repo_includes(self):
        edges = self.model.includes.get("src/serve/engine.cpp", [])
        resolved = {e.resolved for e in edges if e.resolved}
        self.assertIn("src/serve/engine.hpp", resolved)


class TestStripperRegression(unittest.TestCase):
    def test_digit_separator_is_not_a_char_literal(self):
        # 0x50414E53'54525542ull once swallowed the rest of the file as an
        # unterminated char literal, hiding every rule after it.
        code = ("constexpr unsigned long long kMagic = 0x5041'5542ull;\n"
                "void f() { throw 1; }\n")
        stripped = burst_lint.strip_comments_and_strings(code)
        self.assertIn("throw 1", stripped)
        self.assertIn("0x5041'5542ull", stripped)

    def test_char_literals_still_stripped(self):
        stripped = burst_lint.strip_comments_and_strings(
            "char c = 'x'; char nl = '\\n'; wchar_t w = L'y';")
        self.assertNotIn("x", stripped.split("=")[1])
        self.assertNotIn("y", stripped)


if __name__ == "__main__":
    unittest.main(verbosity=2)
