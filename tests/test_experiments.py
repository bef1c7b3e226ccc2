"""Smoke/shape tests of the experiment harnesses (fast configurations).

The benchmarks run the full-size experiments; these tests run tiny
configurations so the harness plumbing (rows, columns, notes,
assertable shapes) is exercised inside the unit-test budget.
"""

import pytest

from repro.experiments import (default_wing, measured_linear_iterations,
                               run_eq_bounds, run_fig3, run_fig5,
                               run_table1, run_table3, run_table5)
from repro.experiments.common import ExperimentResult, solve_with_partition


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
        assert ratios[-1] > 1.5


class TestTable3:
    @pytest.fixture(scope="class")
    def sc(self):
        return run_table3(procs=(2, 8), size="small", max_steps=3)

    def test_iterations_measured(self, sc):
        assert sc.points[0].linear_its > 0
        assert sc.points[1].linear_its >= sc.points[0].linear_its

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
        t1 = r.column("1 thread(s)")
        t2 = r.column("2 threads(s)")
        assert all(b < a for a, b in zip(t1, t2))


class TestFig3:
    def test_reordering_effect(self):
        r = run_fig3(dims=(8, 6, 5), cache_scale=48)
        rows = {row[0]: row for row in r.rows}
        assert (rows["reordered interlaced+blocked"][2]
                < rows["NOER noninterlaced"][2])


class TestFig5:
    def test_histories_and_monotonicity(self):
        r, hists = run_fig5(cfl0_values=(1.0, 20.0), size="tiny",
                            max_steps=40)
        assert len(hists) == 2
        assert hists[0].steps_to_target >= hists[1].steps_to_target
        for h in hists:
            assert h.residuals[0] == pytest.approx(1.0)


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
