"""The lint engine: file discovery and the rule drive.

Besides the registered rules, the engine itself emits ``R000``
(pragma/parse errors): a module that does not parse or a pragma with an
unknown token cannot be trusted to suppress anything, so both are
findings rather than silent no-ops — a typo'd ``# lint: compiled-okk``
fails the build instead of quietly not suppressing, and so does a
token of a rule that no longer exists.  The same applies to the test
tree R001 cross-references: an unreadable or unparsable test file is
an R000 finding, not a silent hole in the "exercised by tests" check.

Module-scope rules run per file as it is parsed; project-scope rules
(R001's oracle pairing) run their ``finalize`` once every module and
the test tree have been seen.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.model import Finding, ModuleInfo, parse_module
from repro.lint.registry import ProjectInfo, all_rules

__all__ = ["discover_files", "collect_test_names", "run_lint"]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache",
              "node_modules"}


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    seen: dict[Path, None] = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for root, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(d for d in dirnames
                                     if d not in _SKIP_DIRS
                                     and not d.startswith("."))
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        seen.setdefault(Path(root) / fn)
        elif p.suffix == ".py":
            seen.setdefault(p)
    return list(seen)


def _rel(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def collect_test_names(tests_dir: Path) -> tuple[set[str], list[Finding]]:
    """Every identifier appearing in the test tree (names, attributes,
    and imported symbols) — the cross-reference set for R001 — plus an
    R000 finding per test file that could not be read or parsed (a
    broken test file silently shrinks the cross-reference set, which
    would let untested oracle pairs slide)."""
    names: set[str] = set()
    findings: list[Finding] = []
    for path in discover_files([tests_dir]):
        rel = _rel(path)
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding("R000", rel, 1, 0,
                                    f"unreadable test file: {exc}"))
            continue
        except SyntaxError as exc:
            findings.append(Finding("R000", rel, 1, 0,
                                    f"test file does not parse: {exc.msg} "
                                    f"(line {exc.lineno})"))
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[-1])
    return names, findings


def _pragma_findings(module: ModuleInfo) -> Iterable[Finding]:
    if module.syntax_error is not None:
        yield module.finding("R000", 1, 0,
                             f"module does not parse: {module.syntax_error}")
    for line, msg in module.bad_pragmas:
        yield module.finding("R000", line, 0, msg)


def run_lint(paths: Sequence[str | Path],
             tests_dir: str | Path | None = "tests",
             select: Iterable[str] | None = None) -> list[Finding]:
    """Lint ``paths`` and return the sorted findings.

    ``tests_dir`` feeds R001's "exercised by tests" cross-reference;
    pass None (or a missing directory) to relax that requirement.
    ``select`` restricts to the given rule ids (R000 always runs).
    """
    wanted = set(select) if select is not None else None
    rules = [r for r in all_rules() if wanted is None or r.id in wanted]

    modules: list[ModuleInfo] = []
    findings: list[Finding] = []
    for path in discover_files(paths):
        module = parse_module(path, _rel(path))
        modules.append(module)
        findings.extend(_pragma_findings(module))
        for rule_obj in rules:
            if rule_obj.scope == "module":
                findings.extend(rule_obj.check_module(module))

    tests_seen = False
    test_names: set[str] = set()
    if tests_dir is not None:
        tdir = Path(tests_dir)
        if tdir.is_dir():
            tests_seen = True
            test_names, test_findings = collect_test_names(tdir)
            findings.extend(test_findings)

    project = ProjectInfo(modules, test_names=test_names,
                          tests_seen=tests_seen)
    for rule_obj in rules:
        findings.extend(rule_obj.finalize(project))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
