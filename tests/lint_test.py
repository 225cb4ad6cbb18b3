"""Seeded-violation tests for tools/catlift_lint.py.

Each case copies the lint-relevant slice of the real repo into a
fixture tree, injects one contract violation (an unhashed SimOptions
field, a store-record change without a kVersion bump, a narrowed
per-fault catch, ...) and asserts the linter fails with exactly the
expected rule id -- pinning both that every rule fires and that the
rules don't bleed into each other.  The pristine tree must stay clean.

Run via ctest (`ctest -R lint_test`) or directly:
    python3 -m unittest discover -s tests -p lint_test.py
"""

import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import catlift_lint  # noqa: E402


class PristineTreeTest(unittest.TestCase):
    def test_repo_is_clean(self):
        findings = catlift_lint.run_lint(REPO)
        self.assertEqual(
            [], [str(f) for f in findings],
            "the committed tree must lint clean; fix the finding or "
            "add a documented exemption")


class RepoMapTest(unittest.TestCase):
    """CL004 looks where the one per-fault body lives: the campaign driver
    that tran, AC and DC all plug into."""

    def test_containment_rule_targets_the_single_driver(self):
        self.assertEqual(["src/anafault/driver.h"],
                         catlift_lint.RUNNER_FILES)
        anafault = REPO / "src" / "anafault"
        bodies = {p.name: len(re.findall(r"run_class\s*=\s*\[",
                                         p.read_text()))
                  for p in anafault.iterdir()
                  if p.suffix in (".h", ".cpp")}
        self.assertEqual({"driver.h": 1},
                         {k: v for k, v in bodies.items() if v})

    def test_determinism_rule_covers_the_fault_list_path(self):
        # The fault list LIFT extracts feeds every verdict, so the layout
        # half is held to the kernel's bit-reproducibility rule.
        for d in ("src/spice", "src/anafault", "src/geom", "src/extract",
                  "src/lift"):
            self.assertIn(d, catlift_lint.DETERMINISM_DIRS)

    def test_determinism_rule_covers_the_deck_parser_and_lvs(self):
        # Every deck value goes through src/netlist's parser and every
        # fault list through its LVS, so a locale-dependent strtod there
        # would make a verdict depend on the host's locale.
        self.assertIn("src/netlist", catlift_lint.DETERMINISM_DIRS)
        self.assertEqual(
            [], [str(f) for f in catlift_lint.rule_determinism(REPO)
                 if f.path.startswith("src/netlist/")])


class SeededViolationTest(unittest.TestCase):
    """One test per scenario: the violation fires its rule and no other."""


def _make_case(rule_id, name, mutator):
    def test(self):
        with tempfile.TemporaryDirectory(prefix="catlift_lint_") as tmp:
            fixture = catlift_lint.make_fixture(REPO, Path(tmp))
            mutator(fixture)
            findings = catlift_lint.run_lint(fixture)
            fired = sorted({f.rule for f in findings})
            self.assertIn(
                rule_id, fired,
                f"seeding '{name}' must trip {rule_id}; "
                f"findings: {[str(f) for f in findings]}")
            self.assertEqual(
                [rule_id], fired,
                f"seeding '{name}' must trip only {rule_id}")
            self.assertTrue(
                catlift_lint.scenario_fired(
                    name, [f for f in findings if f.rule == rule_id]),
                f"seeding '{name}' must report "
                f"{catlift_lint.EXPECTED_FINDINGS.get(name)!r}; "
                f"findings: {[str(f) for f in findings]}")
    return test


for _rule, _name, _mutator in catlift_lint.SCENARIOS:
    _slug = _name.replace(" ", "_").replace("-", "_").replace("(", "").replace(
        ")", "")
    setattr(SeededViolationTest, f"test_{_rule}_{_slug}",
            _make_case(_rule, _name, _mutator))


class CliTest(unittest.TestCase):
    """The linter's command-line contract, as CI invokes it."""

    def run_lint(self, *args):
        return subprocess.run(
            [sys.executable, str(REPO / "tools" / "catlift_lint.py"), *args],
            capture_output=True, text=True)

    def test_clean_tree_exits_zero(self):
        proc = self.run_lint("--root", str(REPO))
        self.assertEqual(0, proc.returncode, proc.stdout + proc.stderr)
        self.assertIn("clean", proc.stdout)

    def test_violation_exits_nonzero_with_rule_id(self):
        with tempfile.TemporaryDirectory(prefix="catlift_lint_") as tmp:
            fixture = catlift_lint.make_fixture(REPO, Path(tmp))
            catlift_lint.SCENARIOS[0][2](fixture)  # unhashed SimOptions field
            proc = self.run_lint("--root", str(fixture))
            self.assertEqual(1, proc.returncode)
            self.assertIn("CL001", proc.stdout)

    def test_self_test_passes(self):
        proc = self.run_lint("--self-test", "--root", str(REPO))
        self.assertEqual(0, proc.returncode, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
