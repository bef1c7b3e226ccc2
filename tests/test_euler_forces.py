"""Wall force integration."""

import numpy as np
import pytest

from repro.core import NKSSolver, SolverConfig
from repro.euler import integrate_wall_forces, wall_pressure, wing_problem
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
        assert abs(wf.lift) < 1e-12 * wf.reference
        assert abs(wf.drag) < 1e-12 * wf.reference

    def test_positive_lift_at_positive_alpha(self, solved_wing):
        prob, rep = solved_wing
        wf = integrate_wall_forces(prob.disc, rep.final_state)
        # Flow over a floor-mounted patch at +3 deg: suction side up.
        assert wf.lift > 0.01 * wf.reference

    def test_compressible_pressure_extraction(self):
        prob = wing_problem(6, 5, 4, compressible=True, mach=0.4)
        wall, p = wall_pressure(prob.disc, prob.initial.flat())
        assert np.allclose(p, 1.0)      # freestream p = 1

    def test_no_wall_raises(self):
        from tests.helpers import duct_problem
        prob = duct_problem(4)
        with pytest.raises(ValueError):
            integrate_wall_forces(prob.disc, prob.initial.flat())

    def test_lift_axis_validation(self, solved_wing):
        prob, rep = solved_wing
        fs_dir = prob.disc.farfield_state[1:4]
        with pytest.raises(ValueError):
            integrate_wall_forces(prob.disc, rep.final_state,
                                  lift_axis=fs_dir)

