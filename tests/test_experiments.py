"""Smoke/shape tests of the experiment harnesses (fast configurations).

Tiny configurations exercise the harness plumbing inside the unit-test
budget and call each ``check_*`` whose claims hold at that size; every
check must pass on its committed artefact and fail once one claimed
ordering in it is reversed.
"""

import re
from pathlib import Path

import pytest

from repro.experiments import (ClaimError, default_wing,
                               measured_linear_iterations, run_eq_bounds,
                               run_fig3, run_fig5, run_table1, run_table3,
                               run_table5)
from repro.experiments.__main__ import EXPERIMENTS
from repro.experiments.common import ExperimentResult, solve_with_partition
from repro.experiments.fig5 import check_fig5, histories
from repro.experiments.table1 import check_table1
from repro.experiments.table3 import check_table3
from repro.experiments.table5 import check_table5

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class TestCommon:
    def test_experiment_result_table(self):
        r = ExperimentResult(name="t", headers=["a", "b"],
                             rows=[[1, 2.5], [3, 4.0]], notes=["n"])
        text = r.table()
        assert "t" in text and "# n" in text
        assert r.column("a") == [1, 3]

    def test_default_wing_sizes_ordered(self):
        tiny = default_wing("tiny")
        small = default_wing("small")
        assert tiny.mesh.num_vertices < small.mesh.num_vertices

    def test_solve_with_partition_fixed_steps(self):
        prob = default_wing("tiny")
        solver, rep = solve_with_partition(prob, 2, max_steps=3)
        assert rep.num_steps == 3          # unreachable target: all steps
        assert solver.partition_labels.max() == 1

    def test_measured_iterations_grow_with_parts(self):
        prob = default_wing("small")
        its2, _ = measured_linear_iterations(prob, 2, max_steps=3)
        its16, _ = measured_linear_iterations(prob, 16, max_steps=3)
        assert sum(its16) >= sum(its2)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1(dims=(8, 6, 5), cache_scale=48,
                          linear_its_per_step=3)

    def test_six_rows(self, result):
        assert len(result.rows) == 6

    def test_baseline_normalised(self, result):
        assert result.rows[0][4] == 1

    def test_full_stack_wins(self, result):
        ratios = result.column("Ratio")
        assert ratios[-1] == max(ratios)
        check_table1(result)


class TestTable3:
    @pytest.fixture(scope="class")
    def sc(self):
        return run_table3(procs=(2, 8), size="small", max_steps=3)

    def test_iterations_measured(self, sc):
        assert sc.points[0].linear_its > 0
        check_table3(sc.to_table())

    def test_efficiency_reference(self, sc):
        assert sc.efficiency[0].eta_overall == 1.0

    def test_tables_render(self, sc):
        assert "eta_alg" in sc.to_table().table()
        assert "Vtx/proc" in sc.to_fig1_table().table()

    def test_factorisation_identity(self, sc):
        for eff in sc.efficiency:
            assert eff.eta_overall == pytest.approx(
                eff.eta_alg * eff.eta_impl, rel=1e-9)


class TestTable5:
    def test_rows_and_shape(self):
        r = run_table5(node_counts=(2, 4), size="small")
        assert len(r.rows) == 2
        check_table5(r)


class TestFig3:
    def test_reordering_effect(self):
        r = run_fig3(dims=(8, 6, 5), cache_scale=48)
        rows = {row[0]: row for row in r.rows}
        assert (rows["reordered interlaced+blocked"][2]
                < rows["NOER noninterlaced"][2])


class TestFig5:
    def test_histories_and_monotonicity(self):
        r = run_fig5(cfl0_values=(1.0, 20.0), size="tiny", max_steps=40)
        check_fig5(r)
        curves = histories(r)
        assert sorted(curves) == [1.0, 20.0]
        for cfl0, steps in zip(r.column("CFL0"), r.column("Steps to 1e-6")):
            assert curves[cfl0][0] == pytest.approx(1.0)
            assert len(curves[cfl0]) == steps


class TestEqBounds:
    def test_bound_valid(self):
        r = run_eq_bounds(n=1024, bandwidths=(128, 1024, 2048))
        assert all(r.column("Bound + compulsory >= sim"))

    def test_knee_location(self):
        from repro.memory.cache import CacheConfig
        cache = CacheConfig("c", 8 * 1024, 32, 2)     # 1024 words
        r = run_eq_bounds(n=1024, cache=cache,
                          bandwidths=(512, 4096))
        bounds = r.column("Eq. bound")
        assert bounds[0] == 0 and bounds[1] > 0


def _value(cell: str):
    for convert in (int, float):
        try:
            return convert(cell.replace(",", ""))
        except ValueError:
            pass
    return {"True": True, "False": False}.get(cell, cell)


def parse_results(text: str) -> list[ExperimentResult]:
    """A committed artefact back into its results: the inverse of
    ``ExperimentResult.table``, one result per blank-line block.  The
    dashed rule under the headers gives each column's extent."""
    out = []
    for block in text.rstrip("\n").split("\n\n"):
        name, header, rule, *body = block.split("\n")
        spans = [m.span() for m in re.finditer(r"-+", rule)]
        cells = [[line[a:b].strip() for a, b in spans] for line in body
                 if not line.startswith("  # ")]
        out.append(ExperimentResult(
            name=name, headers=[header[a:b].strip() for a, b in spans],
            rows=[[_value(c) for c in row] for row in cells],
            notes=[line[4:] for line in body if line.startswith("  # ")]))
    return out


CHECKED = sorted(name for name, (_, check) in EXPERIMENTS.items() if check)

#: per checked artefact, one claimed ordering to reverse: swap the
#: cells of ``column`` in rows ``i`` and ``j`` of its first table
REVERSALS = {
    "table1": ("Ratio", 0, 5),                 # baseline beats full stack
    "table2": ("Its fp64", 0, 2),              # tiers' its disagree
    "table3": ("Time(s)", 0, 4),               # time grows with P
    "table4": ("Its", 0, 1),                   # overlap adds its
    "table5": ("hybrid/mpi2", 0, 3),           # hybrid advantage shrinks
    "fig1": ("Time/step(s)", 0, 5),            # time/step grows with P
    "fig2": ("Time(s)", 0, 1),                 # time grows with P
    "fig3": ("TLB misses", 0, 5),              # reordering adds misses
    "fig4": ("Its", 4, 9),                     # p-way converges faster
    "fig5": ("Steps to 1e-6", 0, 3),           # larger CFL0 slower
    "eqbounds": ("Simulated x misses", 3, 4),  # conflicts fall with beta
    "ablation-orderings": ("TLB miss", 0, 8),  # tuned order worst
    "ablation-imbalance": ("%implicit sync", 0, 3),
    "ablation-matrix-free": ("Steps", 0, 1),
    "ablation-jacobian-lag": ("Factorisations", 0, 2),
    "ablation-rasm": ("Comm phases", 0, 1),
}


def test_one_committed_file_per_checked_artefact():
    assert sorted(p.stem for p in RESULTS.glob("*.txt")) == CHECKED
    assert sorted(REVERSALS) == CHECKED


@pytest.mark.parametrize("name", CHECKED)
def test_check_catches_a_reversed_claim(name):
    _, check = EXPERIMENTS[name]
    text = (RESULTS / f"{name}.txt").read_text()
    results = parse_results(text)
    assert "\n\n".join(r.table() for r in results) + "\n" == text
    for result in results:
        check(result)                 # the committed claims hold
    column, i, j = REVERSALS[name]
    rows, k = results[0].rows, results[0].headers.index(column)
    assert rows[i][k] != rows[j][k]
    rows[i][k], rows[j][k] = rows[j][k], rows[i][k]
    with pytest.raises(ClaimError):
        check(results[0])
