"""Unit tests for the smaller support modules: reporting, flow state,
network model details, hybrid model internals, driver records."""

import numpy as np
import pytest

from repro.core.driver import SolveReport, StepRecord
from repro.core.reporting import (format_markdown_table, format_series,
                                  format_table)
from repro.euler.state import (FlowState, compressible_freestream,
                               incompressible_freestream)
from repro.parallel.netmodel import NetworkModel
from repro.parallel.rankwork import RankWork


class TestReporting:
    def test_format_table_alignment(self):
        t = format_table(["a", "bb"], [[1, 2.5], [30, 0.125]], title="T")
        lines = t.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_format_table_empty_rows(self):
        t = format_table(["x"], [])
        assert "x" in t

    def test_float_formatting(self):
        t = format_table(["v"], [[0.0], [1e-7], [123456.789], [3.5]])
        assert "0" in t and "1e-07" in t

    def test_markdown_table(self):
        md = format_markdown_table(["a", "b"], [[1, 2]])
        lines = md.splitlines()
        assert lines[0].startswith("|") and "---" in lines[1]
        assert "| 1 | 2 |" == lines[2]

    def test_series(self):
        s = format_series("curve", [1, 2], [0.5, 0.25], "p", "t")
        assert "curve" in s and "p" in s and "t" in s


class TestFlowState:
    def test_interlaced_flat_roundtrip(self):
        fs = incompressible_freestream(5, alpha_deg=0.0)
        back = FlowState.from_flat(fs.flat(), fs.components)
        assert np.array_equal(back.q, fs.q)

    def test_component_access(self):
        fs = incompressible_freestream(4, speed=2.0, alpha_deg=0.0)
        assert np.allclose(fs.component("u"), 2.0)
        assert np.allclose(fs.component("p"), 0.0)

    def test_noninterlaced_is_field_major(self):
        fs = incompressible_freestream(3, alpha_deg=5.0)
        fm = fs.noninterlaced()
        assert fm.shape == (4, 3)
        assert np.array_equal(fm[1], fs.component("u"))

    def test_alpha_rotates_velocity(self):
        fs = incompressible_freestream(1, alpha_deg=90.0)
        assert fs.q[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert fs.q[0, 3] == pytest.approx(1.0)

    def test_speed_magnitude(self):
        fs = incompressible_freestream(1, speed=3.0, alpha_deg=17.0,
                                       beta_deg=9.0)
        assert np.linalg.norm(fs.q[0, 1:4]) == pytest.approx(3.0)

    def test_compressible_mach(self):
        fs = compressible_freestream(1, mach=0.5, alpha_deg=0.0)
        rho = fs.q[0, 0]
        v = fs.q[0, 1:4] / rho
        p = 0.4 * (fs.q[0, 4] - 0.5 * rho * v @ v)
        c = np.sqrt(1.4 * p / rho)
        assert np.linalg.norm(v) / c == pytest.approx(0.5)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FlowState(q=np.zeros((3, 5)), components=("a", "b"))

    def test_copy_independent(self):
        fs = incompressible_freestream(3)
        c = fs.copy()
        c.q[:] = 0
        assert not np.allclose(fs.q, 0)


class TestNetworkModelDetails:
    def test_pack_bandwidth_caps_payload(self):
        slow_pack = NetworkModel(alpha=0, beta=1e9, pack_bw=1e6)
        fast_pack = NetworkModel(alpha=0, beta=1e9, pack_bw=1e9)
        assert slow_pack.scatter_time(1, 1e6) > fast_pack.scatter_time(1, 1e6)

    def test_latency_dominates_small_messages(self):
        net = NetworkModel(alpha=1e-4, beta=1e9, pack_bw=1e9)
        t = net.scatter_time(10, 100)
        assert t == pytest.approx(1e-3, rel=1e-3)

    def test_effective_bandwidth(self):
        net = NetworkModel(alpha=0, beta=1e9, pack_bw=1e9)
        assert net.effective_bandwidth(1e6, 0.5) == pytest.approx(2e6)

    def test_allreduce_single_rank_free(self):
        net = NetworkModel(alpha=1e-5, beta=1e8, pack_bw=1e7)
        assert net.allreduce_time(1) == 0.0


class TestRankWorkDetails:
    def _work(self, **kw):
        defaults = dict(rank=0, owned_vertices=100, local_edges=700,
                        interior_edges=600, halo_edges=100, ncomp=4)
        defaults.update(kw)
        return RankWork(**defaults)

    def test_block_nnz_formula(self):
        w = self._work()
        assert w.local_block_nnz == 100 + 2 * 600 + 100
        assert w.jacobian_scalar_nnz == w.local_block_nnz * 16

    def test_flux_dominated_by_edges(self):
        w1 = self._work(local_edges=700)
        w2 = self._work(local_edges=1400)
        assert w2.flux_flops == pytest.approx(2 * w1.flux_flops, rel=0.01)

    def test_pcsetup_scales_with_fill_squared(self):
        w1 = self._work(fill_ratio=1.0)
        w2 = self._work(fill_ratio=2.0)
        assert w2.pcsetup_flops == pytest.approx(4 * w1.pcsetup_flops,
                                                 rel=0.01)


class TestSolveReport:
    def _report(self):
        rep = SolveReport(converged=True, fnorm0=1.0)
        rep.steps = [
            StepRecord(step=1, fnorm=1.0, cfl=10, linear_iterations=5,
                       gmres_converged=True),
            StepRecord(step=2, fnorm=0.1, cfl=100, linear_iterations=7,
                       gmres_converged=True),
        ]
        return rep

    def test_totals(self):
        rep = self._report()
        assert rep.total_linear_iterations == 12
        assert rep.num_steps == 2
        assert rep.final_reduction == pytest.approx(0.1)

    def test_histories(self):
        rep = self._report()
        assert rep.residual_history.tolist() == [1.0, 0.1]
        assert rep.cfl_history.tolist() == [10, 100]

    def test_empty_report(self):
        rep = SolveReport(converged=False)
        assert rep.final_reduction == 1.0


class TestDriverMonitor:
    def test_monitor_called_each_step(self):
        from repro.core import NKSSolver, SolverConfig
        from repro.euler import wing_problem
        prob = wing_problem(5, 4, 4)
        seen = []
        cfg = SolverConfig(matrix_free=True, max_steps=4,
                           target_reduction=1e-12)
        NKSSolver(prob.disc, cfg).solve(
            prob.initial.flat(),
            monitor=lambda rec, q: seen.append((rec.step, q.shape)))
        assert [s for s, _ in seen] == [1, 2, 3, 4]
        assert all(shape == (prob.num_unknowns,) for _, shape in seen)

    def test_monitor_early_stop(self):
        from repro.core import NKSSolver, SolverConfig
        from repro.euler import wing_problem
        prob = wing_problem(5, 4, 4)

        def stop_after_two(rec, q):
            if rec.step >= 2:
                raise StopIteration

        cfg = SolverConfig(matrix_free=True, max_steps=10,
                           target_reduction=1e-12)
        rep = NKSSolver(prob.disc, cfg).solve(prob.initial.flat(),
                                              monitor=stop_after_two)
        assert rep.num_steps == 2
        assert not rep.converged
        assert rep.final_state is not None


class TestBoundaryPermute:
    def test_bc_permuted_relabels_vertices(self):
        import numpy as np
        from repro.euler.boundary import BoundaryCondition
        bc = BoundaryCondition(vertices=np.array([0, 2]),
                               normals=np.zeros((2, 3)),
                               kinds=np.array([0, 1]))
        inv = np.array([5, 6, 7])   # old -> new
        bc2 = bc.permuted(inv)
        assert bc2.vertices.tolist() == [5, 7]
        assert np.array_equal(bc2.kinds, bc.kinds)
