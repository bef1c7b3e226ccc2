"""The edge-based FV discretisation: conservation, exactness, Jacobians."""

import numpy as np
import pytest

from repro.euler import (IncompressibleEuler, incompressible_freestream,
                         wing_problem)
from repro.euler.reconstruction import (Limiter, green_gauss_gradients,
                                        reconstruct_edge_states)
from tests.helpers import csr_to_dense, duct_problem, farfield_boundary

class TestFreestreamPreservation:
    """Uniform flow is an exact steady state on an all-farfield box."""

    @pytest.mark.parametrize("compressible", [False, True])
    @pytest.mark.parametrize("order2", [False, True])
    def test_exact(self, compressible, order2):
        prob = duct_problem(4, compressible=compressible,
                            second_order=order2)
        r = prob.disc.residual(prob.initial.flat())
        assert np.abs(r).max() < 1e-12


class TestConservation:
    def test_interior_fluxes_telescope(self, small_mesh, small_dual, rng):
        """Summing the residual over all vertices leaves only boundary
        fluxes: interior Rusanov fluxes cancel pairwise."""
        bc = farfield_boundary(small_mesh, small_dual)
        fs = incompressible_freestream(small_mesh.num_vertices)
        disc = IncompressibleEuler(small_mesh, bc, small_dual, farfield=fs,
                                   second_order=False)
        q = fs.flat() + 0.05 * rng.standard_normal(disc.num_unknowns)
        r = disc.residual(q).reshape(-1, 4)
        # Rebuild only the boundary flux and compare the global sum.
        qf = q.reshape(-1, 4)
        rb = np.zeros_like(qf)
        disc._add_boundary_residual(qf, rb)
        assert np.allclose(r.sum(axis=0), rb.sum(axis=0), atol=1e-10)


class TestJacobians:
    def _fd_dense(self, disc, q, eps=1e-6):
        n = q.size
        j = np.zeros((n, n))
        r0 = disc.residual(q, second_order=False)
        for c in range(n):
            qp = q.copy()
            qp[c] += eps
            j[:, c] = (disc.residual(qp, second_order=False) - r0) / eps
        return j

    def test_assembled_close_to_fd(self, rng):
        prob = wing_problem(4, 3, 3, second_order=False)
        q = prob.initial.flat() + 0.01 * rng.standard_normal(
            prob.num_unknowns)
        ja = csr_to_dense(prob.disc.assemble_jacobian(q).to_csr())
        jf = self._fd_dense(prob.disc, q)
        # Frozen-lambda dissipation: small relative error allowed.
        denom = np.abs(jf).max()
        assert np.abs(ja - jf).max() / denom < 0.02

    def test_compressible_assembled_close_to_fd(self, rng):
        prob = wing_problem(4, 3, 3, compressible=True, second_order=False)
        q = prob.initial.flat() * (1 + 0.001 * rng.standard_normal(
            prob.num_unknowns))
        ja = csr_to_dense(prob.disc.assemble_jacobian(q).to_csr())
        jf = self._fd_dense(prob.disc, q)
        denom = np.abs(jf).max()
        assert np.abs(ja - jf).max() / denom < 0.02

    def test_matrix_free_matches_assembled_first_order(self, rng):
        prob = wing_problem(4, 3, 3, second_order=False)
        disc = prob.disc
        q = prob.initial.flat() + 0.01 * rng.standard_normal(disc.num_unknowns)
        v = rng.standard_normal(disc.num_unknowns)
        op = disc.jacobian_operator(q, second_order=False)
        jv_mf = op.matvec(v)
        jv_asm = disc.assemble_jacobian(q).to_csr() @ v
        rel = (np.linalg.norm(jv_mf - jv_asm)
               / max(np.linalg.norm(jv_asm), 1e-30))
        assert rel < 0.05  # FD noise + frozen lambda

    def test_shifted_jacobian_adds_positive_diagonal(self, rng):
        prob = wing_problem(4, 3, 3)
        q = prob.initial.flat()
        j0 = csr_to_dense(prob.disc.assemble_jacobian(q).to_csr())
        j1 = csr_to_dense(prob.disc.shifted_jacobian(q, cfl=5.0).to_csr())
        d = np.diag(j1 - j0)
        assert np.all(d > 0)
        off = (j1 - j0) - np.diag(d)
        assert np.abs(off).max() < 1e-12

    def test_shift_scales_inversely_with_cfl(self):
        prob = wing_problem(4, 3, 3)
        q = prob.initial.flat()
        s1 = prob.disc.timestep_shift(q, 1.0)
        s10 = prob.disc.timestep_shift(q, 10.0)
        assert np.allclose(s1, 10 * s10)
        assert np.all(s1 > 0)


class TestReconstruction:
    def test_gradients_exact_for_linear(self, small_mesh, small_dual):
        g = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, 1.0]]).T  # (3, 2)
        q = small_mesh.coords @ g          # (n, 2) linear fields
        grad = green_gauss_gradients(small_mesh, small_dual, q)
        interior = np.linalg.norm(small_dual.bnd_vertex_normals,
                                  axis=1) == 0
        for c in range(2):
            assert np.allclose(grad[interior, c, :], g[:, c], atol=1e-10)

    def test_reconstruction_exact_for_linear_unlimited(self, small_mesh,
                                                       small_dual):
        g = np.array([1.0, 2.0, -0.5])
        q = (small_mesh.coords @ g)[:, None]
        grad = green_gauss_gradients(small_mesh, small_dual, q)
        ql, qr = reconstruct_edge_states(small_mesh, small_dual, q, grad,
                                         Limiter.NONE)
        e = small_mesh.edges
        mid = 0.5 * (small_mesh.coords[e[:, 0]] + small_mesh.coords[e[:, 1]])
        exact = (mid @ g)[:, None]
        interior_edge = (np.linalg.norm(small_dual.bnd_vertex_normals[e],
                                        axis=2) == 0).all(axis=1)
        assert np.allclose(ql[interior_edge], exact[interior_edge],
                           atol=1e-10)
        assert np.allclose(qr[interior_edge], exact[interior_edge],
                           atol=1e-10)

    def test_limiters_bounded_by_neighbors(self, small_mesh, small_dual,
                                           rng):
        """Limited edge states stay within the local data range."""
        q = rng.random((small_mesh.num_vertices, 1))
        grad = green_gauss_gradients(small_mesh, small_dual, q)
        for lim in (Limiter.VAN_ALBADA, Limiter.MINMOD):
            ql, qr = reconstruct_edge_states(small_mesh, small_dual, q,
                                             grad, lim)
            e = small_mesh.edges
            lo = np.minimum(q[e[:, 0]], q[e[:, 1]])
            hi = np.maximum(q[e[:, 0]], q[e[:, 1]])
            span = hi - lo
            assert np.all(ql >= lo - span - 1e-12)
            assert np.all(ql <= hi + span + 1e-12)

    def test_second_order_shrinks_interface_jumps(self, small_mesh,
                                                  small_dual):
        """Rusanov dissipation is proportional to |qr - ql| at each dual
        face; MUSCL reconstruction of a smooth field must shrink those
        jumps relative to the first-order (nodal) states."""
        x = small_mesh.coords[:, 0]
        q = np.sin(2 * np.pi * x)[:, None]
        grad = green_gauss_gradients(small_mesh, small_dual, q)
        ql, qr = reconstruct_edge_states(small_mesh, small_dual, q, grad,
                                         Limiter.VAN_ALBADA)
        e = small_mesh.edges
        jump1 = np.abs(q[e[:, 1]] - q[e[:, 0]]).mean()
        jump2 = np.abs(qr - ql).mean()
        assert jump2 < 0.5 * jump1


class TestAccounting:
    def test_residual_eval_counter(self):
        prob = duct_problem(3)
        n0 = prob.disc.nresidual_evals
        prob.disc.residual(prob.initial.flat())
        assert prob.disc.nresidual_evals == n0 + 1

    def test_flop_counts_positive_and_ordered(self):
        prob = wing_problem(4, 4, 3)
        f1 = prob.disc.residual_flops(second_order=False)
        f2 = prob.disc.residual_flops(second_order=True)
        assert 0 < f1 < f2
