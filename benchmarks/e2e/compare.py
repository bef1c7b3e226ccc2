#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py A B

``A`` (the base) and ``B`` are each a ``report.json`` written by
``run.py`` or a directory holding several (searched recursively).  For
every workload x end-to-end metric it prints both medians, the relative
change with its base, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``         B's median is not worse than A's by more than the bound;
* ``worse``      it is;
* ``unresolved`` the metric is missing on one side, or A's own runs
                 spread (first to third quartile over the median) wider
                 than the bound and B's runs are not all better than
                 all of A's — more runs are needed, not a verdict.

Exact counts of the traced run (``solvers.linear_its``,
``solvers.steps``, every ``*_calls``) are listed when they differ: any
change there is an algorithmic change and must be declared.  Exits
non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load(path: str) -> list[dict]:
    p = pathlib.Path(path)
    files = sorted(p.rglob("report*.json")) if p.is_dir() else [p]
    if not files:
        raise SystemExit(f"compare.py: no report*.json under {p}")
    reports = []
    for f in files:
        with open(f) as fh:
            reports.append(json.load(fh))
    return reports


def values(reports, workload, section, name) -> list[float]:
    out = []
    for r in reports:
        m = r["workloads"].get(workload, {}).get(section, {}).get(name)
        if m is not None:
            out.append(m["value"])
    return out


def spread(vals: list[float]) -> float:
    """First-to-third-quartile distance over the median; 0 for fewer
    than two runs (nothing to judge a spread by)."""
    if len(vals) < 2:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)


def verdict(a, b, better, bound) -> tuple[str, float]:
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / ma
    worsening = change if better == "lower" else -change
    if spread(a) > bound:
        all_better = (max(b) < min(a) if better == "lower"
                      else min(b) > max(a))
        return ("ok" if all_better else "unresolved"), change
    return ("worse" if worsening > bound else "ok"), change


def is_count(name: str) -> bool:
    return name.endswith("_calls") or name in ("solvers.linear_its",
                                               "solvers.steps")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(HERE.parent.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    a_runs, b_runs = load(sys.argv[1]), load(sys.argv[2])
    print(f"A: {len(a_runs)} run(s) of {sys.argv[1]}   "
          f"B: {len(b_runs)} run(s) of {sys.argv[2]}")
    print(f"{'workload':<22}{'metric':<16}{'A':>12}{'B':>12}"
          f"{'(B-A)/A':>10}{'bound':>8}  verdict")
    worse = 0
    for w in (w["name"] for w in bench["workloads"]):
        for spec in bench["end_to_end"]:
            a = values(a_runs, w, "end_to_end", spec["name"])
            b = values(b_runs, w, "end_to_end", spec["name"])
            if not a or not b:
                print(f"{w:<22}{spec['name']:<16}{'-':>12}{'-':>12}"
                      f"{'-':>10}{spec['bound']:>8}  unresolved")
                continue
            what, change = verdict(a, b, spec["better"], spec["bound"])
            worse += what == "worse"
            print(f"{w:<22}{spec['name']:<16}"
                  f"{statistics.median(a):>12.5g}"
                  f"{statistics.median(b):>12.5g}"
                  f"{change:>+10.1%}{spec['bound']:>8}  {what}")
        for spec in bench["per_layer"]:
            if not is_count(spec["name"]):
                continue
            a = set(values(a_runs, w, "per_layer", spec["name"]))
            b = set(values(b_runs, w, "per_layer", spec["name"]))
            if a and b and a != b:
                print(f"{w:<22}{spec['name']}: count changed "
                      f"{sorted(a)} -> {sorted(b)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
