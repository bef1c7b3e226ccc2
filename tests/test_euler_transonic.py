"""Transonic bump flow: order switching and limiter robustness.

These integration tests exercise the paper's Sec. 2.4.1 shocked-flow
continuation machinery: first-order start, SER exponent damping, the
order switchover, and limiter selection.
"""

import numpy as np
import pytest

from repro.core import NKSSolver, SolverConfig
from repro.solvers.ptc import PTCConfig
from tests.helpers import small_bump


@pytest.fixture(scope="module")
def bump_solution():
    """One converged transonic solve shared across assertions."""
    prob = small_bump(limiter="minmod")
    cfg = SolverConfig(
        ptc=PTCConfig(cfl0=2.0, exponent=0.75, switch_order_drop=1e-2,
                      first_order_exponent=1.5),
        max_steps=80, target_reduction=3e-6, matrix_free=True,
        jacobian_lag=2)
    rep = NKSSolver(prob.disc, cfg).solve(prob.initial.flat())
    return prob, rep


def _primitives(q):
    rho = q[:, 0]
    vel = q[:, 1:4] / rho[:, None]
    p = 0.4 * (q[:, 4] - 0.5 * rho * np.einsum("ij,ij->i", vel, vel))
    mach = np.linalg.norm(vel, axis=1) / np.sqrt(1.4 * p / rho)
    return rho, vel, p, mach


class TestTransonicSolve:
    def test_converges_with_minmod(self, bump_solution):
        prob, rep = bump_solution
        assert rep.converged

    def test_flow_accelerates_over_bump(self, bump_solution):
        prob, rep = bump_solution
        q = rep.final_state.reshape(-1, 5)
        rho, vel, p, mach = _primitives(q)
        # Pressure on the bump crest is below the upstream-floor value
        # (Bernoulli-like acceleration), by a clear margin.
        bc = prob.disc.bc
        floor = bc.vertices[bc.wall_mask]
        x = prob.mesh.coords[floor, 0]
        crest = floor[np.abs(x - 0.5) < 0.12]
        upstream = floor[(x > 0.2) & (x < 0.32)]
        assert p[crest].min() < p[upstream].mean() - 0.05

    def test_recompression_downstream(self, bump_solution):
        """The lee-side pressure recovery (the shock's footprint at this
        resolution)."""
        prob, rep = bump_solution
        q = rep.final_state.reshape(-1, 5)
        _, _, p, _ = _primitives(q)
        bc = prob.disc.bc
        floor = bc.vertices[bc.wall_mask]
        x = prob.mesh.coords[floor, 0]
        crest_min = p[floor[np.abs(x - 0.5) < 0.15]].min()
        lee = p[floor[(x > 0.65) & (x < 0.85)]].mean()
        assert lee > crest_min + 0.1

    def test_state_stays_physical(self, bump_solution):
        prob, rep = bump_solution
        q = rep.final_state.reshape(-1, 5)
        rho, _, p, _ = _primitives(q)
        assert np.all(rho > 0)
        assert np.all(p > 0)

    def test_order_switch_happened(self):
        """The SER controller must have switched first -> second order
        during the solve (residual drop crosses the threshold)."""
        from repro.solvers.ptc import SERController
        cfg = PTCConfig(cfl0=2.0, exponent=0.75, switch_order_drop=1e-2,
                        first_order_exponent=1.5)
        c = SERController(cfg)
        assert not c.second_order
        c.update(1.0)
        c.update(0.5)
        assert not c.second_order
        c.update(0.009)
        assert c.second_order


class TestLimiterRobustness:
    def test_van_albada_limit_cycles_minmod_converges(self):
        """Observed (and physically typical) behaviour at shocks: the
        smooth van Albada limiter limit-cycles around 1e-3 relative
        residual while minmod reaches deep convergence — the kind of
        case-specific nonlinear-convergence behaviour the paper's
        Fig. 5 caption warns about."""
        cfg = SolverConfig(
            ptc=PTCConfig(cfl0=2.0, exponent=0.75, switch_order_drop=1e-2,
                          first_order_exponent=1.5),
            max_steps=50, target_reduction=1e-5, matrix_free=True,
            jacobian_lag=2)
        out = {}
        for limiter in ("minmod", "van_albada"):
            prob = small_bump(limiter=limiter)
            rep = NKSSolver(prob.disc, cfg).solve(prob.initial.flat())
            out[limiter] = (rep.residual_history / rep.fnorm0).min()
        assert out["minmod"] < 1e-5
        assert out["minmod"] < out["van_albada"]
