"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e -q``;
tier-1 collects ``tests/`` only, so this is not part of it).

One ``run.py --smoke`` run (tiny wings, one warm solve, two stream
cycles) must emit exactly the workload and metric names declared in
``BENCHMARK.json``, write well-formed span files, and report counts
that agree with the solver's own.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from spans import check_forest, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def bench():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out / "report.json") as fh:
        report = json.load(fh)
    return out, report, json.loads(proc.stdout.strip().splitlines()[-1])


def test_last_line_is_the_result(smoke):
    _, _, last = smoke
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1


def test_names_are_exactly_the_declared_ones(smoke, bench):
    _, report, _ = smoke
    workloads = [w["name"] for w in bench["workloads"]]
    assert list(report["workloads"]) == workloads
    for section in ("end_to_end", "per_layer"):
        declared = [m["name"] for m in bench[section]]
        for w in workloads:
            got = report["workloads"][w][section]
            assert list(got) == declared
            for name, spec in zip(declared, bench[section]):
                assert got[name]["unit"] == spec["unit"]
    for name in workloads + [m["name"] for s in ("end_to_end", "per_layer")
                             for m in bench[s]]:
        assert NAME.fullmatch(name), name
    assert not report["problems"]


def test_every_metric_is_measured_somewhere(smoke, bench):
    """A declared per-layer metric that reads 0 on all four workloads
    is a name nothing computes."""
    _, report, _ = smoke
    for spec in bench["per_layer"]:
        assert any(row["per_layer"][spec["name"]]["value"] != 0
                   for row in report["workloads"].values()), spec["name"]
    for w, row in report["workloads"].items():
        for name, m in row["end_to_end"].items():
            assert m["value"] > 0, (w, name)


def test_span_files_are_forests(smoke, bench):
    out, _, _ = smoke
    for w in bench["workloads"]:
        with open(out / f"trace-{w['name']}.json") as fh:
            doc = json.load(fh)
        spans = doc["spans"]
        assert spans and doc["workload"] == w["name"]
        assert check_forest(spans) == []
        assert min(self_times(spans).values()) > -1e-6
        assert all(s["workload"] == w["name"] for s in spans)
        # the solve index, or the ticket id of the service request
        assert all(s["op_id"] is not None for s in spans)


def test_counts_agree_with_the_solver(smoke):
    _, report, _ = smoke
    for w, row in report["workloads"].items():
        m = {k: v["value"] for k, v in row["per_layer"].items()}
        counts = row["detail_trace1"]["counts"]
        assert m["solvers.linear_its"] == counts["report_linear_its"], w
        assert m["solvers.steps"] == counts["report_steps"], w
        # right-preconditioned GMRES applies M once per iteration and
        # once more per restart cycle to form the update
        assert m["precond.apply_calls"] == counts["gmres_precond_applies"]
        assert (m["solvers.linear_its"] < m["precond.apply_calls"]
                <= m["solvers.linear_its"] + counts["gmres_restarts"]), w


def test_layer_rows_sum_to_the_solve(smoke):
    _, report, _ = smoke
    for w, row in report["workloads"].items():
        m = {k: v["value"] for k, v in row["per_layer"].items()}
        rows = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert rows == pytest.approx(m["core.solve_s"], rel=1e-6), w
        assert 0 <= m["core.unattributed_frac"] <= 0.10, w
