"""GMRES: convergence, restarts, orthogonalisation, preconditioning."""

import numpy as np
import pytest

from repro.solvers import gmres
from repro.solvers.krylov_base import (OperatorFromCallable,
                                       OperatorFromMatrix, as_operator)
from repro.sparse import CSRMatrix, ilu_csr


def spd_like(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * 0.2
    a += np.eye(n) * 4
    return a


class TestBasics:
    def test_solves_dense(self, rng):
        a = spd_like(50, 0)
        b = rng.random(50)
        res = gmres(a, b, rtol=1e-12, restart=30, maxiter=500)
        assert res.converged
        assert np.allclose(a @ res.x, b, atol=1e-9)

    def test_solves_csr(self, rng):
        a = spd_like(50, 1)
        m = CSRMatrix.from_dense(a)
        b = rng.random(50)
        res = gmres(m, b, rtol=1e-10)
        assert res.converged
        assert np.allclose(a @ res.x, b, atol=1e-7)

    def test_matrix_free_callable(self, rng):
        a = spd_like(30, 2)
        b = rng.random(30)
        op = OperatorFromCallable(lambda v: a @ v, 30)
        res = gmres(op, b, rtol=1e-10)
        assert res.converged

    def test_zero_rhs(self):
        a = spd_like(10, 3)
        res = gmres(a, np.zeros(10))
        assert res.converged
        assert np.allclose(res.x, 0)

    def test_exact_initial_guess(self, rng):
        a = spd_like(10, 4)
        x = rng.random(10)
        res = gmres(a, a @ x, x0=x, rtol=1e-12)
        assert res.converged
        assert res.iterations == 0

    def test_identity_converges_one_iteration(self, rng):
        b = rng.random(20)
        res = gmres(np.eye(20), b, rtol=1e-12)
        assert res.converged
        assert res.iterations <= 1


class TestResidualTracking:
    def test_residual_monotone_within_cycle(self, rng):
        a = spd_like(60, 5)
        b = rng.random(60)
        res = gmres(a, b, rtol=1e-12, restart=60, maxiter=60)
        r = np.array(res.residual_norms)
        assert np.all(np.diff(r) <= 1e-9 * r[:-1] + 1e-14)

    def test_reported_final_residual_true(self, rng):
        a = spd_like(40, 6)
        b = rng.random(40)
        res = gmres(a, b, rtol=1e-8)
        true = np.linalg.norm(b - a @ res.x)
        # Givens estimate and true residual agree closely.
        assert abs(true - res.final_residual) <= 1e-6 * np.linalg.norm(b)

    def test_maxiter_respected(self, rng):
        a = spd_like(80, 7) - 3.8 * np.eye(80)   # hard: nearly singular
        b = rng.random(80)
        res = gmres(a, b, rtol=1e-14, maxiter=25, restart=10)
        assert res.iterations <= 25


class TestRestart:
    def test_restarted_still_converges(self, rng):
        a = spd_like(60, 8)
        b = rng.random(60)
        res = gmres(a, b, rtol=1e-10, restart=5, maxiter=400)
        assert res.converged

    def test_small_restart_needs_more_iterations(self, rng):
        a = spd_like(60, 9) - 2.0 * np.eye(60)
        b = rng.random(60)
        its = {}
        for m in (5, 60):
            its[m] = gmres(a, b, rtol=1e-8, restart=m, maxiter=1000).iterations
        assert its[5] >= its[60]


class TestOrthogonalization:
    @pytest.mark.parametrize("orth", ["mgs", "cgs"])
    def test_both_converge_same_count(self, orth, rng):
        a = spd_like(50, 10)
        b = rng.random(50)
        res = gmres(a, b, rtol=1e-10, orthog=orth)
        assert res.converged
        assert np.allclose(a @ res.x, b, atol=1e-7)

    def test_mgs_cgs_agree(self, rng):
        a = spd_like(50, 11)
        b = rng.random(50)
        x1 = gmres(a, b, rtol=1e-11, orthog="mgs").x
        x2 = gmres(a, b, rtol=1e-11, orthog="cgs").x
        assert np.allclose(x1, x2, atol=1e-7)


class TestPreconditioning:
    def test_ilu_reduces_iterations(self, rng):
        n = 120
        a = spd_like(n, 12) + np.diag(np.linspace(0, 30, n))
        m = CSRMatrix.from_dense(a)
        b = rng.random(n)
        plain = gmres(m, b, rtol=1e-10, maxiter=500)
        pc = ilu_csr(m, 1)
        precond = gmres(m, b, M=pc, rtol=1e-10, maxiter=500)
        assert precond.converged
        assert precond.iterations < plain.iterations
        assert np.allclose(a @ precond.x, b, atol=1e-6)

    def test_right_preconditioning_true_residuals(self, rng):
        """With right PC the tracked norms are unpreconditioned ones."""
        a = spd_like(40, 13)
        m = CSRMatrix.from_dense(a)
        b = rng.random(40)
        res = gmres(m, b, M=ilu_csr(m, 0), rtol=1e-9)
        true = np.linalg.norm(b - a @ res.x)
        assert abs(true - res.final_residual) <= 1e-6 * np.linalg.norm(b)

    def test_identity_pc_equals_no_pc(self, rng):
        class Identity:
            def solve(self, r):
                return r.copy()

        a = spd_like(30, 14)
        b = rng.random(30)
        r1 = gmres(a, b, rtol=1e-10)
        r2 = gmres(a, b, M=Identity(), rtol=1e-10)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.x, r2.x)


class TestOperators:
    def test_as_operator_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_operator("nope")

    def test_callable_needs_n(self):
        with pytest.raises(ValueError):
            as_operator(lambda v: v)

    def test_matvec_counting(self, rng):
        a = spd_like(20, 15)
        op = OperatorFromMatrix(a)
        gmres(op, rng.random(20), rtol=1e-8)
        assert op.nmatvecs > 0
