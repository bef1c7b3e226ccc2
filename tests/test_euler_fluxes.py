"""Pointwise flux functions: Jacobian exactness, invariances, wavespeeds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler.fluxes import (compressible_flux, compressible_flux_jacobian,
                                compressible_wavespeed, incompressible_flux,
                                incompressible_flux_jacobian,
                                incompressible_wavespeed, rusanov_flux,
                                rusanov_flux_jacobians,
                                rusanov_half_jacobian)


def fd_jacobian(flux, q, s, eps=1e-7, **kw):
    m, nc = q.shape
    j = np.zeros((m, nc, nc))
    for c in range(nc):
        qp = q.copy()
        qp[:, c] += eps
        qm = q.copy()
        qm[:, c] -= eps
        j[:, :, c] = (flux(qp, s, **kw) - flux(qm, s, **kw)) / (2 * eps)
    return j


@pytest.fixture(scope="module")
def states(rng):
    q_inc = rng.random((20, 4)) - np.array([0.5, 0, 0, 0])
    q_cmp = np.zeros((20, 5))
    q_cmp[:, 0] = 1 + 0.3 * rng.random(20)
    q_cmp[:, 1:4] = 0.4 * (rng.random((20, 3)) - 0.5)
    q_cmp[:, 4] = 2.5 + rng.random(20)
    s = rng.random((20, 3)) - 0.5
    return q_inc, q_cmp, s


class TestIncompressible:
    def test_jacobian_matches_fd(self, states):
        q, _, s = states
        ja = incompressible_flux_jacobian(q, s, beta=6.0)
        jf = fd_jacobian(incompressible_flux, q, s, beta=6.0)
        assert np.allclose(ja, jf, atol=1e-6)

    def test_flux_linear_in_area(self, states):
        q, _, s = states
        f1 = incompressible_flux(q, s)
        f2 = incompressible_flux(q, 3.0 * s)
        assert np.allclose(f2, 3.0 * f1)

    def test_zero_velocity_flux(self):
        q = np.array([[2.0, 0, 0, 0]])
        s = np.array([[1.0, 0, 0]])
        f = incompressible_flux(q, s)
        assert np.allclose(f, [[0, 2.0, 0, 0]])  # only pressure

    def test_wavespeed_dominates_eigenvalues(self, states):
        q, _, s = states
        j = incompressible_flux_jacobian(q, s, beta=6.0)
        lam = incompressible_wavespeed(q, s, beta=6.0)
        for i in range(q.shape[0]):
            assert np.abs(np.linalg.eigvals(j[i])).max() <= lam[i] + 1e-10

    def test_wavespeed_scales_with_beta(self, states):
        q, _, s = states
        l1 = incompressible_wavespeed(q, s, beta=1.0)
        l2 = incompressible_wavespeed(q, s, beta=100.0)
        assert np.all(l2 > l1)


class TestCompressible:
    def test_jacobian_matches_fd(self, states):
        _, q, s = states
        ja = compressible_flux_jacobian(q, s)
        jf = fd_jacobian(compressible_flux, q, s)
        assert np.allclose(ja, jf, atol=1e-6)

    def test_homogeneity(self, states):
        """Euler flux is homogeneous of degree 1: F(q) = A(q) q."""
        _, q, s = states
        a = compressible_flux_jacobian(q, s)
        f = compressible_flux(q, s)
        assert np.allclose(np.einsum("mij,mj->mi", a, q), f, atol=1e-10)

    def test_wavespeed_dominates_eigenvalues(self, states):
        _, q, s = states
        j = compressible_flux_jacobian(q, s)
        lam = compressible_wavespeed(q, s)
        for i in range(q.shape[0]):
            assert np.abs(np.linalg.eigvals(j[i])).max() <= lam[i] + 1e-10

    def test_mass_flux(self, states):
        _, q, s = states
        f = compressible_flux(q, s)
        vel = q[:, 1:4] / q[:, 0:1]
        un = np.einsum("ij,ij->i", vel, s)
        assert np.allclose(f[:, 0], q[:, 0] * un)


class TestRusanov:
    def test_consistency(self, states):
        """F(q, q) = F(q): the numerical flux is consistent."""
        q, _, s = states
        f = rusanov_flux(q, q, s, incompressible_flux,
                         incompressible_wavespeed, beta=4.0)
        assert np.allclose(f, incompressible_flux(q, s, beta=4.0))

    def test_conservation_antisymmetry(self, states):
        """F(ql, qr; s) = -F(qr, ql; -s): flux leaving one cell enters
        the other."""
        q, _, s = states
        ql, qr = q[:10], q[10:]
        f1 = rusanov_flux(ql, qr, s[:10], incompressible_flux,
                          incompressible_wavespeed, beta=4.0)
        f2 = rusanov_flux(qr, ql, -s[:10], incompressible_flux,
                          incompressible_wavespeed, beta=4.0)
        assert np.allclose(f1, -f2)

    def test_upwind_dissipation_sign(self, states):
        q, _, s = states
        ql, qr = q[:10], q[10:]
        central = 0.5 * (incompressible_flux(ql, s[:10], beta=4.0)
                         + incompressible_flux(qr, s[:10], beta=4.0))
        f = rusanov_flux(ql, qr, s[:10], incompressible_flux,
                         incompressible_wavespeed, beta=4.0)
        diss = central - f
        lam = np.maximum(incompressible_wavespeed(ql, s[:10], beta=4.0),
                         incompressible_wavespeed(qr, s[:10], beta=4.0))
        assert np.allclose(diss, 0.5 * lam[:, None] * (qr - ql))

    def test_half_jacobians_split_a_by_dissipation(self, states):
        """With one state on both sides the left and right Jacobians
        sum to A and differ by lambda I."""
        q, _, s = states
        a = incompressible_flux_jacobian(q, s, beta=4.0)
        lam = incompressible_wavespeed(q, s, beta=4.0)
        jl = rusanov_half_jacobian(a, lam)
        jr = rusanov_half_jacobian(a, -lam)
        assert np.allclose(jl + jr, a)
        assert np.allclose(jl - jr, lam[:, None, None] * np.eye(4))

    def test_jacobians_match_fd_when_lambda_smooth(self):
        """Away from the max() switch, the frozen-lambda Jacobian is the
        true derivative up to the dlambda term (small for small dq)."""
        rng = np.random.default_rng(0)
        ql = rng.random((5, 4))
        qr = ql + 1e-5 * rng.random((5, 4))
        s = rng.random((5, 3)) - 0.5
        jl, jr = rusanov_flux_jacobians(ql, qr, s,
                                        incompressible_flux_jacobian,
                                        incompressible_wavespeed, beta=4.0)
        eps = 1e-7
        for c in range(4):
            qp = ql.copy()
            qp[:, c] += eps
            fd = (rusanov_flux(qp, qr, s, incompressible_flux,
                               incompressible_wavespeed, beta=4.0)
                  - rusanov_flux(ql, qr, s, incompressible_flux,
                                 incompressible_wavespeed, beta=4.0)) / eps
            assert np.allclose(jl[:, :, c], fd, atol=1e-3)


@settings(deadline=None, max_examples=25)
@given(st.floats(0.5, 2.0), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.floats(-0.5, 0.5), st.floats(1.5, 4.0))
def test_property_compressible_wavespeed_positive(rho, u, v, w, e_extra):
    q = np.array([[rho, rho * u, rho * v, rho * w,
                   e_extra + 0.5 * rho * (u*u + v*v + w*w)]])
    s = np.array([[0.3, -0.4, 0.2]])
    assert compressible_wavespeed(q, s)[0] > 0
