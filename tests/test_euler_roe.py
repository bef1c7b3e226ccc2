"""Roe flux-difference splitting: properties and solver integration."""

import numpy as np
import pytest

from repro.euler.fluxes import (compressible_flux, compressible_wavespeed,
                                rusanov_flux)
from repro.euler import roe
from repro.euler.roe import roe_flux


def make_state(rho, vel, p, gamma=1.4):
    vel = np.asarray(vel, dtype=np.float64)
    return np.array([[rho, *(rho * vel),
                      p / (gamma - 1) + 0.5 * rho * (vel @ vel)]])


@pytest.fixture(scope="module")
def random_states(rng):
    q = np.zeros((12, 5))
    q[:, 0] = 1 + 0.3 * rng.random(12)
    q[:, 1:4] = 0.3 * (rng.random((12, 3)) - 0.5)
    q[:, 4] = 2.5 + rng.random(12)
    s = rng.random((12, 3)) - 0.5
    return q, s


class TestRoeProperties:
    def test_consistency(self, random_states):
        q, s = random_states
        assert np.allclose(roe_flux(q, q, s), compressible_flux(q, s),
                           atol=1e-12)

    def test_conservation_antisymmetry(self, random_states):
        q, s = random_states
        qr = np.roll(q, 1, axis=0)
        assert np.allclose(roe_flux(q, qr, s), -roe_flux(qr, q, -s),
                           atol=1e-12)

    def test_stationary_contact_exact(self):
        """Roe's defining property: a contact/shear jump at rest passes
        with zero dissipation (Rusanov smears it at the sound speed)."""
        n = np.array([[1.0, 0.0, 0.0]])
        ql = make_state(1.0, [0, 0.2, 0.1], 2.5)
        qr = make_state(0.5, [0, -0.3, 0.4], 2.5)
        central = 0.5 * (compressible_flux(ql, n)
                         + compressible_flux(qr, n))
        assert np.allclose(roe_flux(ql, qr, n), central, atol=1e-12)
        rus = rusanov_flux(ql, qr, n, compressible_flux,
                           compressible_wavespeed)
        assert np.abs(rus - central).max() > 0.1

    def test_less_dissipative_than_rusanov_on_shear(self, rng):
        """At low normal Mach the Roe dissipation is ~M times the
        Rusanov one."""
        n = np.array([[1.0, 0.0, 0.0]])
        ql = make_state(1.0, [0.05, 0.4, 0.0], 2.5)
        qr = make_state(0.9, [0.05, -0.4, 0.1], 2.4)
        central = 0.5 * (compressible_flux(ql, n)
                         + compressible_flux(qr, n))
        d_roe = np.abs(roe_flux(ql, qr, n) - central).max()
        d_rus = np.abs(rusanov_flux(ql, qr, n, compressible_flux,
                                    compressible_wavespeed)
                       - central).max()
        assert d_roe < 0.5 * d_rus

    def test_supersonic_upwinding(self):
        """Fully supersonic flow: the Roe flux equals the upstream
        analytic flux (all waves run one way)."""
        n = np.array([[1.0, 0.0, 0.0]])
        ql = make_state(1.0, [3.0, 0.0, 0.0], 1.0)   # M ~ 2.5
        qr = make_state(0.8, [2.8, 0.1, 0.0], 0.9)
        f = roe_flux(ql, qr, n)
        assert np.allclose(f, compressible_flux(ql, n), rtol=1e-10)

    def test_entropy_fix_floors_eigenvalues(self, monkeypatch):
        """At a sonic expansion (lambda ~ 0) the fixed flux is more
        dissipative than the raw one."""
        n = np.array([[1.0, 0.0, 0.0]])
        # un - a ~ 0 on one side.
        ql = make_state(1.0, [1.18, 0.0, 0.0], 1.0)   # a ~ 1.18
        # |u.n - a| under 0.1 a, where the default fix is active
        qr = make_state(0.7, [1.3, 0.0, 0.0], 0.7)
        f_fix = roe_flux(ql, qr, n)
        monkeypatch.setattr(roe, "_ENTROPY_FIX", 1e-12)
        f_raw = roe_flux(ql, qr, n)
        assert not np.allclose(f_raw, f_fix)

    def test_area_scaling(self, random_states):
        q, s = random_states
        qr = np.roll(q, 1, axis=0)
        assert np.allclose(roe_flux(q, qr, 3.0 * s),
                           3.0 * roe_flux(q, qr, s), atol=1e-12)


class TestRoeInSolver:
    def test_freestream_preserved(self):
        from tests.helpers import duct_problem
        prob = duct_problem(4, compressible=True)
        prob.disc.flux_scheme = "roe"
        r = prob.disc.residual(prob.initial.flat())
        assert np.abs(r).max() < 1e-12

    def test_scheme_validation(self):
        from repro.euler import wing_problem
        from repro.euler.compressible import CompressibleEuler
        prob = wing_problem(5, 4, 4, compressible=True)
        with pytest.raises(ValueError):
            CompressibleEuler(prob.mesh, prob.disc.bc, prob.disc.dual,
                              flux_scheme="hllc")

    def test_transonic_bump_resolves_supersonic_pocket(self):
        """With Roe's sharper flux the M=0.84 bump flow develops a
        genuinely supersonic pocket at this resolution; Rusanov's
        dissipation suppresses it.  Both converge."""
        from repro.core import NKSSolver, SolverConfig
        from repro.euler import transonic_bump_problem
        from repro.solvers.ptc import PTCConfig
        cfg = SolverConfig(
            ptc=PTCConfig(cfl0=2.0, exponent=0.75, switch_order_drop=1e-2,
                          first_order_exponent=1.5),
            max_steps=80, target_reduction=3e-6, matrix_free=True,
            jacobian_lag=2)
        mmax = {}
        for scheme in ("rusanov", "roe"):
            prob = transonic_bump_problem(13, 4, 7, limiter="minmod",
                                          flux_scheme=scheme)
            rep = NKSSolver(prob.disc, cfg).solve(prob.initial.flat())
            assert rep.converged, scheme
            q = rep.final_state.reshape(-1, 5)
            rho = q[:, 0]
            vel = q[:, 1:4] / rho[:, None]
            p = 0.4 * (q[:, 4] - 0.5 * rho
                       * np.einsum("ij,ij->i", vel, vel))
            mmax[scheme] = float((np.linalg.norm(vel, axis=1)
                                  / np.sqrt(1.4 * p / rho)).max())
        assert mmax["roe"] > mmax["rusanov"]
        assert mmax["roe"] > 0.99
