"""Force integration and grid sequencing."""

import numpy as np
import pytest

from repro.core import NKSSolver, SolverConfig
from repro.core.sequencing import (grid_sequenced_solve, interpolate_state,
                                   nearest_vertices)
from repro.euler import (integrate_wall_forces, pressure_coefficient,
                         wall_pressure, wing_problem)
from repro.solvers.ptc import PTCConfig


@pytest.fixture(scope="module")
def solved_wing():
    prob = wing_problem(11, 7, 5, alpha_deg=3.0)
    cfg = SolverConfig(matrix_free=True, jacobian_lag=2, max_steps=30,
                       target_reduction=1e-8, ptc=PTCConfig(cfl0=10.0))
    rep = NKSSolver(prob.disc, cfg).solve(prob.initial.flat())
    assert rep.converged
    return prob, rep


class TestForces:
    def test_freestream_state_zero_force(self):
        """Uniform freestream pressure produces no net wall force."""
        prob = wing_problem(8, 6, 4)
        wf = integrate_wall_forces(prob.disc, prob.initial.flat())
        assert abs(wf.cl) < 1e-12
        assert abs(wf.cd) < 1e-12

    def test_positive_lift_at_positive_alpha(self, solved_wing):
        prob, rep = solved_wing
        wf = integrate_wall_forces(prob.disc, rep.final_state)
        # Flow over a floor-mounted patch at +3 deg: suction side up.
        assert wf.cl > 0.01

    def test_cp_consistent_with_pressure(self, solved_wing):
        prob, rep = solved_wing
        wall, p = wall_pressure(prob.disc, rep.final_state)
        wall2, cp = pressure_coefficient(prob.disc, rep.final_state)
        assert np.array_equal(wall, wall2)
        # Incompressible: p_inf = 0, q_inf = 0.5 => cp = 2 p.
        assert np.allclose(cp, 2 * p)

    def test_compressible_pressure_extraction(self):
        prob = wing_problem(6, 5, 4, compressible=True, mach=0.4)
        wall, p = wall_pressure(prob.disc, prob.initial.flat())
        assert np.allclose(p, 1.0)      # freestream p = 1

    def test_no_wall_raises(self):
        from repro.euler import duct_problem
        prob = duct_problem(4)
        with pytest.raises(ValueError):
            integrate_wall_forces(prob.disc, prob.initial.flat())

    def test_lift_axis_validation(self, solved_wing):
        prob, rep = solved_wing
        fs_dir = prob.disc.farfield_state[1:4]
        with pytest.raises(ValueError):
            integrate_wall_forces(prob.disc, rep.final_state,
                                  lift_axis=fs_dir)


class TestNearestVertices:
    def test_exact_match(self, rng):
        pts = rng.random((40, 3))
        idx, dist = nearest_vertices(pts, pts[5:7], k=1)
        assert idx[:, 0].tolist() == [5, 6]
        assert np.allclose(dist, 0)

    def test_matches_bruteforce(self, rng):
        src = rng.random((60, 3))
        tgt = rng.random((25, 3))
        idx, dist = nearest_vertices(src, tgt, k=3)
        for t in range(25):
            d = np.linalg.norm(src - tgt[t], axis=1)
            ref = np.sort(d)[:3]
            assert np.allclose(np.sort(dist[t]), ref, atol=1e-12)

    def test_k_capped_at_sources(self, rng):
        src = rng.random((2, 3))
        idx, dist = nearest_vertices(src, rng.random((5, 3)), k=4)
        assert idx.shape == (5, 2)


class TestSequencing:
    def test_interpolation_exact_for_linear(self):
        coarse = wing_problem(6, 5, 4, seed=0)
        fine = wing_problem(9, 7, 5, seed=0)
        g = np.array([0.3, -0.7, 1.1])
        qc = np.zeros((coarse.mesh.num_vertices, 4))
        qc[:] = (coarse.mesh.coords @ g)[:, None]
        qf = interpolate_state(coarse, fine, qc.ravel()).reshape(-1, 4)
        exact = (fine.mesh.coords @ g)[:, None]
        # IDW from 4 neighbours is an initial-guess transfer, not an
        # interpolant: demand qualitative accuracy (max error a modest
        # fraction of the data span, mean error much smaller).
        span = exact.max() - exact.min()
        assert np.abs(qf - exact).max() < 0.2 * span
        assert np.abs(qf - exact).mean() < 0.05 * span

    def test_sequenced_solve_converges(self):
        cfg_coarse = SolverConfig(matrix_free=True, jacobian_lag=2,
                                  max_steps=15, target_reduction=1e-4,
                                  ptc=PTCConfig(cfl0=10.0))
        cfg_fine = SolverConfig(matrix_free=True, jacobian_lag=2,
                                max_steps=25, target_reduction=1e-6,
                                ptc=PTCConfig(cfl0=100.0))
        seq = grid_sequenced_solve(
            [wing_problem(6, 5, 4, seed=0), wing_problem(9, 7, 5, seed=0)],
            [cfg_coarse, cfg_fine])
        assert seq.final.converged
        assert len(seq.reports) == 2
        assert seq.total_steps == sum(r.num_steps for r in seq.reports)

    def test_single_config_broadcast(self):
        cfg = SolverConfig(matrix_free=True, max_steps=10,
                           target_reduction=1e-3)
        seq = grid_sequenced_solve(
            [wing_problem(5, 4, 4), wing_problem(6, 5, 4)], cfg)
        assert len(seq.reports) == 2

    def test_mismatched_models_raise(self):
        a = wing_problem(5, 4, 4)
        b = wing_problem(6, 5, 4, compressible=True)
        with pytest.raises(ValueError):
            interpolate_state(a, b, a.initial.flat())

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_sequenced_solve([], SolverConfig())
        with pytest.raises(ValueError):
            grid_sequenced_solve([wing_problem(5, 4, 4)],
                                 [SolverConfig(), SolverConfig()])
