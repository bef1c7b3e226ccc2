"""The reprolint CLI: ``python -m repro.lint [options] paths...``.

Exit codes: 0 clean (no findings), 1 findings, 2 usage error — so a CI
job is just the bare invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.lint.engine import run_lint
from repro.lint.model import Finding
from repro.lint.registry import all_rules, known_rule_ids

__all__ = ["main", "render_text", "render_json"]


def _counts(findings: list[Finding]) -> dict[str, int]:
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    return dict(sorted(by_rule.items()))


def render_text(findings: list[Finding]) -> str:
    lines = [f.render() for f in findings]
    if findings:
        counts = ", ".join(f"{r}: {n}" for r, n in _counts(findings).items())
        lines.append(f"reprolint: {len(findings)} finding"
                     f"{'s' if len(findings) != 1 else ''} ({counts})")
    else:
        lines.append("reprolint: clean")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    return json.dumps({"schema_version": 4,
                       "findings": [f.to_dict() for f in findings],
                       "counts": _counts(findings)}, indent=2)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="reprolint: AST checks for this repo's oracle "
                    "discipline (every *_ref oracle has a tested fast "
                    "twin; every compiled backend declares its numpy "
                    "oracles and fallback) and its pragmas.")
    ap.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to lint (default: src)")
    ap.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (default: text)")
    ap.add_argument("--tests", metavar="DIR", default="tests",
                    help="test tree for R001's cross-reference "
                         "(default: tests; missing dir relaxes the check)")
    ap.add_argument("--select", metavar="IDS",
                    help="comma-separated rule ids to run (e.g. R001,R006); "
                         "unknown ids are a usage error (exit 2)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule registry and exit")
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for r in all_rules():
            print(f"{r.id} {r.name}: {r.summary}")
        return 0

    select = None
    if args.select:
        select = {s.strip() for s in args.select.split(",") if s.strip()}
        known = set(known_rule_ids())
        unknown = sorted(select - known)
        if unknown:
            print(f"reprolint: unknown rule id"
                  f"{'s' if len(unknown) != 1 else ''} in --select: "
                  f"{', '.join(unknown)} (known: "
                  f"{', '.join(sorted(known))})", file=sys.stderr)
            return 2

    findings = run_lint(args.paths, tests_dir=args.tests, select=select)
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0
