#!/usr/bin/env python3
"""Fixture tests for tools/kgnet_lint.py (ctest: lint_tool_fixtures).

Each violating fixture under tests/lint_fixtures/ must make *exactly*
its rule fire (right rule ID, right count, nonzero exit); the clean
fixture — which mentions every banned construct inside comments and
strings — must pass. This pins both the rules and the comment/string
stripper, so the linter itself cannot rot silently.
"""

import os
import re
import subprocess
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO_ROOT, "tools", "kgnet_lint.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")


def run_lint(fixture, virtual_path):
    proc = subprocess.run(
        [sys.executable, LINT, "--as", virtual_path,
         os.path.join(FIXTURES, fixture)],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def rule_hits(output, rule):
    return len(re.findall(rf"\b{rule}\b \(", output))


class ViolatingFixtures(unittest.TestCase):
    """One test per rule: the fixture fires its rule and only its rule."""

    def check(self, fixture, virtual_path, rule, expected_hits):
        code, out = run_lint(fixture, virtual_path)
        self.assertNotEqual(code, 0, f"{fixture} should fail the gate:\n{out}")
        self.assertEqual(rule_hits(out, rule), expected_hits, out)
        for other in ("KL001", "KL002", "KL003", "KL004", "KL005",
                      "KL006", "KL007"):
            if other != rule:
                self.assertEqual(
                    rule_hits(out, other), 0,
                    f"{fixture} unexpectedly fired {other}:\n{out}")

    def test_kl001_unordered_iteration(self):
        # One range-for plus one .begin() walk.
        self.check("kl001_unordered_iteration.cc",
                   "src/sparql/fixture.cc", "KL001", 2)

    def test_kl001_fires_in_gml_and_core(self):
        # Hash-order grouping feeding the fold order of a training split.
        self.check("kl001_gml_unordered_iteration.cc",
                   "src/gml/fixture.cc", "KL001", 1)
        self.check("kl001_unordered_iteration.cc",
                   "src/core/fixture.cc", "KL001", 2)

    def test_kl001_sees_annotated_declarations(self):
        # A KGNET_GUARDED_BY(...) between the member name and ';'.
        self.check("kl001_annotated_unordered_iteration.cc",
                   "src/core/fixture.cc", "KL001", 1)

    def test_kl001_is_scoped_to_ordered_layers(self):
        # The same file is legal outside sparql/rdf/core/gml.
        code, out = run_lint("kl001_unordered_iteration.cc",
                             "src/serving/fixture.cc")
        self.assertEqual(code, 0, out)

    def test_kl002_unseeded_random(self):
        # random_device + srand + rand.
        self.check("kl002_unseeded_random.cc",
                   "src/gml/fixture.cc", "KL002", 3)

    def test_kl003_layering(self):
        # tensor -> rdf and tensor -> sparql; the common include is legal.
        self.check("kl003_layering.cc",
                   "src/tensor/fixture.cc", "KL003", 2)

    def test_kl004_naked_new(self):
        # Two news + two deletes; `= delete` must not count.
        self.check("kl004_naked_new.cc",
                   "src/core/fixture.cc", "KL004", 4)

    def test_kl005_thread_local(self):
        self.check("kl005_thread_local.cc",
                   "src/tensor/fixture.cc", "KL005", 1)

    def test_kl006_raw_getenv(self):
        # std::getenv + bare getenv; the string and comment mentions
        # do not count.
        self.check("kl006_raw_getenv.cc",
                   "src/serving/fixture.cc", "KL006", 2)
        self.check("kl006_raw_getenv.cc",
                   "examples/fixture.cpp", "KL006", 2)

    def test_kl006_exempts_the_env_reader(self):
        code, out = run_lint("kl006_raw_getenv.cc", "src/common/env.cc")
        self.assertEqual(code, 0, out)

    def test_kl007_udfs_text_search(self):
        # A literal and a constant holding it; the comment, the string
        # and the TrainGML search do not count.
        self.check("kl007_udfs_text_search.cc",
                   "src/serving/fixture.cc", "KL007", 2)
        self.check("kl007_udfs_text_search.cc",
                   "src/core/fixture.cc", "KL007", 2)

    def test_kl007_is_scoped_to_src(self):
        code, out = run_lint("kl007_udfs_text_search.cc",
                             "tests/fixture.cc")
        self.assertEqual(code, 0, out)


class CleanFixture(unittest.TestCase):
    def test_clean_passes_every_rule(self):
        code, out = run_lint("clean.cc", "src/sparql/fixture.cc")
        self.assertEqual(code, 0,
                         f"clean fixture must pass the full gate:\n{out}")


class WholeTree(unittest.TestCase):
    def test_repo_is_lint_clean(self):
        proc = subprocess.run([sys.executable, LINT],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
