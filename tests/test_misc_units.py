"""Unit tests for the smaller support modules: reporting, flow state,
network model details, hybrid model internals, driver records."""

import numpy as np
import pytest

from repro.core.driver import SolveReport, StepRecord
from repro.core.reporting import format_table
from repro.euler.state import (FlowState, compressible_freestream,
                               incompressible_freestream)
from repro.parallel.netmodel import NetworkModel
from repro.parallel.rankwork import RankWork
from repro.parallel.simulate import ParallelTimeline, StepTiming


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


class TestFlowState:
    def test_interlaced_flat_roundtrip(self):
        # flat() is vertex-major: reshaping it by ncomp gives q back.
        fs = incompressible_freestream(5, alpha_deg=0.0)
        back = FlowState(q=fs.flat().reshape(-1, fs.ncomp),
                         components=fs.components)
        assert np.array_equal(back.q, fs.q)

    def test_alpha_rotates_velocity(self):
        fs = incompressible_freestream(1, alpha_deg=90.0)
        assert fs.q[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert fs.q[0, 3] == pytest.approx(1.0)

    def test_speed_magnitude(self):
        fs = incompressible_freestream(1, alpha_deg=17.0)
        assert np.linalg.norm(fs.q[0, 1:4]) == pytest.approx(1.0)

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

    def test_sparse_phases_below_quarter_flop_per_byte(self):
        """SpMV and the triangular solves stream their matrix: under
        0.25 flops per byte, far left of every machine's ridge point."""
        w = self._work()
        assert w.spmv_flops / w.spmv_traffic < 0.25
        assert w.pcapply_flops / w.pcapply_traffic < 0.25
        assert w.krylov_vector_flops / w.krylov_vector_traffic < 0.25

    def test_fp32_factor_storage_nearly_halves_pcapply_traffic(self):
        """Table 2's lever: the same flops over half-width factor
        values."""
        w8 = self._work(precond_value_bytes=8)
        w4 = self._work(precond_value_bytes=4)
        assert w4.pcapply_flops == w8.pcapply_flops
        assert w4.spmv_traffic == w8.spmv_traffic
        assert 1.6 < w8.pcapply_traffic / w4.pcapply_traffic < 2.0

    def test_flux_traffic_counts_edges_and_vertices(self):
        w = self._work()
        grown = self._work(local_edges=1400)
        # 2 int32 endpoints + a 3-vector normal per edge
        assert grown.flux_traffic - w.flux_traffic == 700 * (2 * 4 + 3 * 8)


class TestParallelTimeline:
    def test_totals_sum_the_steps(self):
        steps = [StepTiming(wall=2.0, compute=1.0, scatter=0.5,
                            reductions=0.25, implicit_sync=0.25,
                            linear_its=10, wall_linear=1.5,
                            wall_pcapply=0.5),
                 StepTiming(wall=1.0, compute=0.5, scatter=0.25,
                            reductions=0.125, implicit_sync=0.125,
                            linear_its=5, wall_linear=0.75,
                            wall_pcapply=0.25)]
        tl = ParallelTimeline(nranks=4, steps=steps,
                              payload_per_linear_it=100.0)
        assert tl.total_wall == 3.0
        assert tl.total_linear_its == 15
        assert tl.total_linear_wall == 2.25
        assert tl.total_pcapply_wall == 0.75
        assert tl.total_payload == 1500.0
        assert sum(tl.category_percent().values()) == pytest.approx(100.0)


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
