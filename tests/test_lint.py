"""reprolint: per-rule regressions, pragma hygiene, CLI behaviour.

Each rule is pinned by a violating/compliant fixture pair under
``tests/lint_fixtures/`` — the violating file must raise *exactly* its
rule (true positive) and the compliant file must lint clean (false
positive guard).
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.cli import main as lint_main
from repro.lint.registry import all_rules

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

RULES = ["R001", "R006"]

#: rules deleted after the mutation campaign (EXPERIMENTS.md, "Guard
#: code by mutation"), with the pragma tokens and module markers only
#: they read
DELETED_RULES = ["R002", "R003", "R004", "R005", "R007", "R008"]
DELETED_TOKENS = ["dtype-ok", "loop-ok", "scatter-ok", "telemetry-ok",
                  "header-ok", "purity-ok", "kernel", "setup", "worker",
                  "clock"]


def lint_fixture(name, **kwargs):
    kwargs.setdefault("tests_dir", None)
    return run_lint([FIXTURES / name], **kwargs)


class TestRuleFixtures:
    @pytest.mark.parametrize("rule", RULES)
    def test_violating_fixture_fires_only_its_rule(self, rule):
        findings = lint_fixture(f"{rule.lower()}_violating.py")
        assert findings, f"{rule} fixture raised nothing"
        assert {f.rule for f in findings} == {rule}

    @pytest.mark.parametrize("rule", RULES)
    def test_compliant_fixture_is_clean(self, rule):
        assert lint_fixture(f"{rule.lower()}_compliant.py") == []

    def test_r006_counts_each_missing_declaration(self):
        """Non-dotted oracle path + missing __fallback__ + one
        undeclared public method are three separate findings."""
        findings = lint_fixture("r006_violating.py")
        assert len(findings) == 3
        assert any("__fallback__" in f.message for f in findings)
        assert any("trisolve" in f.message for f in findings)

    def test_r006_skips_unmarked_modules(self, tmp_path):
        """R006 only fires on '# lint: compiled' modules — an ordinary
        module exposing public callables with no __oracles__ is fine."""
        mod = tmp_path / "plainmod.py"
        mod.write_text("def helper(x):\n    return x\n")
        assert run_lint([mod], tests_dir=None) == []

    def test_findings_carry_location(self):
        (finding,) = lint_fixture("r001_violating.py")
        assert finding.path.endswith("r001_violating.py")
        assert finding.line > 0
        assert "decimate_ref" in finding.message


class TestOracleCoverage:
    def make_project(self, tmp_path, test_body):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(textwrap.dedent("""\
            def interp_ref(x):
                return x


            def interp(x):
                return x
            """))
        tdir = tmp_path / "tests"
        tdir.mkdir()
        (tdir / "test_mod.py").write_text(test_body)
        return pkg, tdir

    def test_untested_pair_is_flagged(self, tmp_path):
        pkg, tdir = self.make_project(tmp_path, "def test_nothing():\n"
                                                "    assert True\n")
        (finding,) = run_lint([pkg], tests_dir=tdir)
        assert finding.rule == "R001"
        assert "interp_ref" in finding.message
        assert "equivalence test" in finding.message

    def test_tested_pair_is_clean(self, tmp_path):
        pkg, tdir = self.make_project(
            tmp_path,
            "from pkg.mod import interp, interp_ref\n\n\n"
            "def test_pair(x):\n    assert interp(x) == interp_ref(x)\n")
        assert run_lint([pkg], tests_dir=tdir) == []


class TestPragmas:
    def test_unknown_token_is_r000(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("# lint: lop-ok (typo)\nx = 1\n")
        findings = run_lint([f], tests_dir=None)
        assert [f.rule for f in findings] == ["R000"]
        assert "lop-ok" in findings[0].message

    @pytest.mark.parametrize("token", DELETED_TOKENS)
    def test_token_of_a_deleted_rule_is_r000(self, tmp_path, token):
        """A pragma no surviving rule reads is stale: R000 flags it
        rather than letting it document a check that no longer runs."""
        f = tmp_path / "mod.py"
        f.write_text(f"# lint: {token} (x)\nx = 1\n")
        findings = run_lint([f], tests_dir=None)
        assert [f.rule for f in findings] == ["R000"]
        assert f"unknown pragma token {token!r}" in findings[0].message

    def test_syntax_error_is_r000(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("def broken(:\n")
        findings = run_lint([f], tests_dir=None)
        assert [f.rule for f in findings] == ["R000"]


class TestCli:
    def test_src_tree_is_clean(self):
        """The merged tree carries no lint debt: ``python -m repro.lint
        src/`` exits 0."""
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "reprolint: clean" in proc.stdout

    def test_violations_exit_one(self, capsys):
        rc = lint_main(["--tests", "does-not-exist",
                        str(FIXTURES / "r001_violating.py")])
        assert rc == 1
        assert "R001" in capsys.readouterr().out

    def test_json_format_parses(self, capsys):
        rc = lint_main(["--format", "json", "--tests", "does-not-exist",
                        str(FIXTURES / "r006_violating.py")])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 4
        assert doc["counts"] == {"R006": 3}

    def test_select_restricts_rules(self, capsys):
        rc = lint_main(["--select", "R006", "--tests", "does-not-exist",
                        str(FIXTURES / "r001_violating.py")])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        """Exactly the surviving rules, one line each."""
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == RULES

    def test_registry_holds_the_surviving_rules(self):
        assert [r.id for r in all_rules()] == RULES

    def test_select_unknown_rule_exits_two(self, capsys):
        """An id never registered and every deleted id are usage errors."""
        for unknown in ["R042"] + DELETED_RULES:
            rc = lint_main(["--select", f"{unknown},R001",
                            str(FIXTURES / "r001_violating.py")])
            assert rc == 2, unknown
            err = capsys.readouterr().err
            assert "unknown rule id" in err
            assert unknown in err.split("(known:")[0]
            assert "R001" in err          # the known list is spelled out

    def test_select_known_rules_still_run(self, capsys):
        rc = lint_main(["--select", "R001", "--tests", "does-not-exist",
                        str(FIXTURES / "r001_violating.py")])
        assert rc == 1
        assert "R001" in capsys.readouterr().out


class TestTestCollection:
    def test_unparsable_test_file_is_r000(self, tmp_path):
        from repro.lint.engine import collect_test_names
        tdir = tmp_path / "tests"
        tdir.mkdir()
        (tdir / "test_ok.py").write_text("def test_a():\n"
                                         "    assert helper() == 1\n")
        (tdir / "test_broken.py").write_text("def test_b(:\n")
        names, findings = collect_test_names(tdir)
        assert "helper" in names
        assert len(findings) == 1
        assert findings[0].rule == "R000"
        assert "does not parse" in findings[0].message
        assert findings[0].path.endswith("test_broken.py")

    def test_unreadable_test_file_is_r000(self, tmp_path):
        from repro.lint.engine import collect_test_names
        tdir = tmp_path / "tests"
        tdir.mkdir()
        bad = tdir / "test_bad.py"
        bad.write_bytes(b"\xff\xfe broken bytes \xff")
        names, findings = collect_test_names(tdir)
        assert len(findings) == 1
        assert findings[0].rule == "R000"
        assert "unreadable" in findings[0].message

    def test_collection_findings_surface_in_run(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("def f(x):\n    return x\n")
        tdir = tmp_path / "tests"
        tdir.mkdir()
        (tdir / "test_broken.py").write_text("def test_b(:\n")
        findings = run_lint([pkg], tests_dir=tdir)
        assert [f.rule for f in findings] == ["R000"]

