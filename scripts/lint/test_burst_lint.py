#!/usr/bin/env python3
"""Self-tests for burst_lint.py (stdlib unittest; the CI image has no pytest).

Each lint rule is proven twice: a fixture file seeded with violations makes
the linter exit non-zero and name the rule, and the suppression fixtures
prove every allow form silences it. The JSON report is validated against the
``burst.run_report`` contract scripts/verify.sh gates on. Finally the real
repo tree must lint clean — the acceptance bar for the whole PR.

Run directly (``python3 scripts/lint/test_burst_lint.py``) or via ctest
(test name ``lint_selftest``).
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "tests", "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))

sys.path.insert(0, HERE)
import burst_lint  # noqa: E402


def run_lint(args):
    """Runs burst_lint.main, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = burst_lint.main(args)
    return rc, out.getvalue(), err.getvalue()


def lint_fixture(rel):
    path = os.path.join(FIXTURES, rel)
    return run_lint(["--root", FIXTURES, path])


class TestRuleDetection(unittest.TestCase):
    """Every rule exits non-zero on its seeded fixture and names itself."""

    def assert_rule_fires(self, rel, rule, expect_count):
        rc, _, err = lint_fixture(rel)
        self.assertEqual(rc, 1, f"{rel} should fail lint\nstderr: {err}")
        hits = [l for l in err.splitlines() if f"[{rule}]" in l]
        self.assertEqual(
            len(hits), expect_count,
            f"expected {expect_count} {rule} finding(s) in {rel}, got "
            f"{len(hits)}:\n{err}")

    def test_no_wallclock(self):
        self.assert_rule_fires("src/sim/bad_wallclock.cpp", "no-wallclock", 3)

    def test_no_raw_rand(self):
        self.assert_rule_fires("src/sim/bad_rand.cpp", "no-raw-rand", 2)

    def test_no_serving_wallclock(self):
        self.assert_rule_fires(
            "src/api/bad_chrono.cpp", "no-serving-wallclock", 4)

    def test_typed_errors_only(self):
        self.assert_rule_fires(
            "src/serve/bad_throw.cpp", "typed-errors-only", 2)

    def test_no_hotpath_alloc(self):
        self.assert_rule_fires(
            "src/kernels/bad_hotpath.cpp", "no-hotpath-alloc", 3)

    def test_no_unchecked_recv(self):
        self.assert_rule_fires("src/comm/bad_recv.cpp", "no-unchecked-recv", 2)

    def test_include_hygiene(self):
        self.assert_rule_fires("src/core/bad_include.cpp", "include-hygiene", 2)

    def test_no_direct_cluster(self):
        self.assert_rule_fires(
            "src/serve/bad_cluster.cpp", "no-direct-cluster", 3)

    def test_no_naked_float_eq(self):
        self.assert_rule_fires(
            "tests/bad_float_eq.cpp", "no-naked-float-eq", 2)

    def test_quantized_hotpath(self):
        self.assert_rule_fires(
            "src/model/bad_quant.cpp", "quantized-hotpath", 3)

    def test_orphan_decl(self):
        # One declared-and-defined function nobody calls, one inline
        # function named only inside its own body.
        self.assert_rule_fires("src/sim/bad_orphan.hpp", "orphan-decl", 2)

    def test_unset_option(self):
        # A member written nowhere, one written only by the declaring
        # module's .cpp, one only read elsewhere, and Reliability's.
        self.assert_rule_fires("src/sim/bad_options.hpp", "unset-option", 4)

    def test_one_param_list(self):
        # All six layer parameters through `.`, through `->`, and in a
        # member function defined inside its class.
        self.assert_rule_fires(
            "src/model/bad_param_list.cpp", "one-param-list", 3)

    def test_one_layer_backward(self):
        # Qualified, unqualified, and split before the '('.
        self.assert_rule_fires(
            "src/model/bad_layer_backward.cpp", "one-layer-backward", 3)

    def test_malformed_directives(self):
        self.assert_rule_fires("src/sim/bad_directive.cpp", "lint-directive", 2)


class TestSuppressionAndNoise(unittest.TestCase):
    def test_all_allow_forms_silence(self):
        rc, _, err = lint_fixture("src/sim/suppressed.cpp")
        self.assertEqual(rc, 0, f"suppressed fixture should be clean:\n{err}")

    def test_comments_and_strings_ignored(self):
        rc, _, err = lint_fixture("src/sim/clean.cpp")
        self.assertEqual(rc, 0, f"clean fixture should be clean:\n{err}")

    def test_serving_wallclock_rule_scoped_to_serving_dirs(self):
        # The same chrono duration in src/sim/ is outside the rule's scope
        # (and names no clock, so no-wallclock stays quiet too).
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "src", "sim")
            os.makedirs(src)
            path = os.path.join(src, "durations.cpp")
            with open(path, "w") as f:
                f.write("#include <chrono>\n"
                        "auto d() { return std::chrono::milliseconds(5); }\n")
            rc, _, err = run_lint(["--root", tmp, path])
            self.assertEqual(rc, 0, err)

    def test_typed_errors_rule_covers_all_of_src(self):
        # Since the whole-program tier landed, the typed-error invariant
        # covers every src/ directory — a raw throw in src/sim/ is flagged —
        # while tests/ (which throw freely to exercise handlers) stay out.
        body = ("#include <stdexcept>\n"
                "void f() { throw std::logic_error(\"x\"); }\n")
        for rel, expect_rc in ((("src", "sim", "raw_throw.cpp"), 1),
                               (("tests", "raw_throw.cpp"), 0)):
            with tempfile.TemporaryDirectory() as tmp:
                d = os.path.join(tmp, *rel[:-1])
                os.makedirs(d)
                path = os.path.join(d, rel[-1])
                with open(path, "w") as f:
                    f.write(body)
                rc, _, err = run_lint(["--root", tmp, path])
                self.assertEqual(rc, expect_rc, f"{'/'.join(rel)}:\n{err}")
                if expect_rc:
                    self.assertIn("[typed-errors-only]", err)

    def test_direct_cluster_rule_exempts_sim_and_backend(self):
        # src/sim/ itself and the simulator transport backend are the two
        # places allowed to name cluster types without a suppression.
        body = ("#include \"sim/cluster.hpp\"\n"
                "int r(burst::sim::DeviceContext& ctx);\n")
        for rel in (("src", "sim", "inner.cpp"),
                    ("src", "comm", "sim_transport.cpp")):
            with tempfile.TemporaryDirectory() as tmp:
                d = os.path.join(tmp, *rel[:-1])
                os.makedirs(d)
                path = os.path.join(d, rel[-1])
                with open(path, "w") as f:
                    f.write(body)
                rc, _, err = run_lint(["--root", tmp, path])
                self.assertEqual(rc, 0, f"{'/'.join(rel)} flagged:\n{err}")

    def test_direct_cluster_rule_off_outside_src(self):
        # Tests, benches and examples legitimately host clusters everywhere.
        with tempfile.TemporaryDirectory() as tmp:
            d = os.path.join(tmp, "tests")
            os.makedirs(d)
            path = os.path.join(d, "test_host.cpp")
            with open(path, "w") as f:
                f.write("#include \"sim/cluster.hpp\"\n"
                        "int r(burst::sim::DeviceContext& ctx);\n")
            rc, _, err = run_lint(["--root", tmp, path])
            self.assertEqual(rc, 0, err)

    def test_quantized_hotpath_scoped_to_src_outside_tensor(self):
        # src/tensor/ owns the block layout; tests (the conformance suite)
        # exercise the codecs directly and are outside the rule's scope.
        body = ("namespace burst::tensor { float dequantize_q8_0(float, "
                "signed char); }\n"
                "float f() { return burst::tensor::dequantize_q8_0(1.0f, 3); "
                "}\n")
        for rel in (("src", "tensor", "codec_use.cpp"),
                    ("tests", "test_codec.cpp")):
            with tempfile.TemporaryDirectory() as tmp:
                d = os.path.join(tmp, *rel[:-1])
                os.makedirs(d)
                path = os.path.join(d, rel[-1])
                with open(path, "w") as f:
                    f.write(body)
                rc, _, err = run_lint(["--root", tmp, path])
                self.assertEqual(rc, 0, f"{'/'.join(rel)} flagged:\n{err}")

    def test_one_param_list_spares_split_lists(self):
        # Lists split across functions, names in comments and strings,
        # lookalike members and the visitor itself are all clean.
        rc, _, err = lint_fixture("src/model/good_param_list.cpp")
        self.assertEqual(rc, 0, f"clean parameter walks flagged:\n{err}")

    def test_one_param_list_scoped_to_non_owners(self):
        # transformer.{hpp,cpp} own the list and tests/ may spell it out;
        # the same body anywhere else in src/, bench/ or examples/ fires.
        with open(os.path.join(FIXTURES, "src", "model",
                               "bad_param_list.cpp")) as f:
            body = f.read()
        for rel, expect_rc in (
                (("src", "model", "transformer.cpp"), 0),
                (("src", "model", "transformer.hpp"), 0),
                (("tests", "test_params.cpp"), 0),
                (("src", "resilience", "codec.cpp"), 1),
                (("bench", "bench_params.cpp"), 1),
                (("examples", "params.cpp"), 1)):
            with tempfile.TemporaryDirectory() as tmp:
                d = os.path.join(tmp, *rel[:-1])
                os.makedirs(d)
                path = os.path.join(d, rel[-1])
                with open(path, "w") as f:
                    f.write(body)
                # Per-file tier only: in a header, orphan-decl would flag
                # the fixture's uncalled functions.
                rc, _, err = run_lint(
                    ["--root", tmp, "--no-analyses", path])
                self.assertEqual(rc, expect_rc, f"{'/'.join(rel)}:\n{err}")
                if expect_rc:
                    self.assertIn("[one-param-list]", err)

    def test_one_layer_backward_spares_lookalikes(self):
        # Names in comments and strings and lookalike functions are clean.
        rc, _, err = lint_fixture("src/model/good_layer_backward.cpp")
        self.assertEqual(rc, 0, f"clean layer code flagged:\n{err}")

    def test_one_layer_backward_scoped_to_src(self):
        # dist_model.cpp runs the one layer backward and block.hpp defines
        # its halves; tests/ and bench/ may call them; anywhere else in src/
        # fires.
        with open(os.path.join(FIXTURES, "src", "model",
                               "bad_layer_backward.cpp")) as f:
            body = f.read()
        for rel, expect_rc in (
                (("src", "model", "dist_model.cpp"), 0),
                (("src", "model", "block.hpp"), 0),
                (("tests", "test_block.cpp"), 0),
                (("bench", "bench_block.cpp"), 0),
                (("src", "model", "transformer.cpp"), 1),
                (("src", "serve", "engine.cpp"), 1)):
            with tempfile.TemporaryDirectory() as tmp:
                d = os.path.join(tmp, *rel[:-1])
                os.makedirs(d)
                path = os.path.join(d, rel[-1])
                with open(path, "w") as f:
                    f.write(body)
                rc, _, err = run_lint(
                    ["--root", tmp, "--no-analyses", path])
                self.assertEqual(rc, expect_rc, f"{'/'.join(rel)}:\n{err}")
                if expect_rc:
                    self.assertIn("[one-layer-backward]", err)

    def test_orphan_decl_counts_every_tree_as_a_use(self):
        # A function named only by tests/, only by bench/, or only by the
        # read-only perfbench/ tree is used; members, constants and type
        # aliases are never candidates.
        rc, _, err = lint_fixture("src/sim/good_decls.hpp")
        self.assertEqual(rc, 0, f"used declarations flagged:\n{err}")

    def test_unset_option_counts_every_write_form(self):
        # Assignment, ->, compound assignment, a nested member's assignment,
        # a method call, indexing, a designated initializer (in perfbench/)
        # and a positional aggregate initializer (in bench/) all set an
        # option; statics and member functions are never candidates.
        rc, _, err = lint_fixture("src/sim/good_options.hpp")
        self.assertEqual(rc, 0, f"set options flagged:\n{err}")

    def test_orphan_decl_reads_perfbench_without_linting_it(self):
        self.assertIn("perfbench", burst_lint.USAGE_DIRS)
        self.assertNotIn("perfbench", burst_lint.SCAN_DIRS)

    def test_hotpath_rule_off_without_tag(self):
        # The same allocations in an untagged file are fine.
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "src", "kernels")
            os.makedirs(src)
            path = os.path.join(src, "untagged.cpp")
            with open(path, "w") as f:
                f.write("#include <vector>\n"
                        "void f() { std::vector<int> v; v.push_back(1); }\n")
            rc, _, err = run_lint(["--root", tmp, path])
            self.assertEqual(rc, 0, err)


class TestJsonReport(unittest.TestCase):
    def test_report_shape_on_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            report_path = os.path.join(tmp, "lint.json")
            path = os.path.join(FIXTURES, "src", "sim", "bad_rand.cpp")
            rc, _, _ = run_lint(
                ["--root", FIXTURES, "--json", report_path, path])
            self.assertEqual(rc, 1)
            with open(report_path) as f:
                rep = json.load(f)
            self.assertEqual(rep["schema"], "burst.run_report")
            self.assertEqual(rep["version"], 1)
            self.assertEqual(rep["kind"], "lint")
            self.assertIs(rep["self_check"], False)
            self.assertTrue(
                any(e["code"] == "lint.no-raw-rand" for e in rep["errors"]))
            failed = [c for c in rep["checks"] if not c["ok"]]
            self.assertTrue(
                any("no-raw-rand" in c["what"] for c in failed))
            counters = rep["metrics"]["counters"]
            self.assertEqual(counters["lint.no-raw-rand"], 2)

    def test_report_self_check_true_when_clean(self):
        with tempfile.TemporaryDirectory() as tmp:
            report_path = os.path.join(tmp, "lint.json")
            path = os.path.join(FIXTURES, "src", "sim", "clean.cpp")
            rc, _, _ = run_lint(
                ["--root", FIXTURES, "--json", report_path, path])
            self.assertEqual(rc, 0)
            with open(report_path) as f:
                rep = json.load(f)
            self.assertIs(rep["self_check"], True)
            self.assertEqual(rep["errors"], [])
            self.assertTrue(all(c["ok"] for c in rep["checks"]))


class TestRepoTreeClean(unittest.TestCase):
    """The real tree lints clean — the PR's acceptance criterion."""

    def test_repo_lints_clean(self):
        rc, _, err = run_lint(["--root", REPO_ROOT])
        self.assertEqual(rc, 0, f"repo tree has lint violations:\n{err}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
