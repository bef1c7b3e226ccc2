"""Boundary condition classification and weak BC fluxes."""

import numpy as np
import pytest

from repro.euler import (BoundaryCondition, boundary, classify_box_boundary,
                         incompressible_freestream, wing_problem)
from repro.euler.incompressible import IncompressibleEuler
from repro.mesh import compute_dual_metrics
from tests.helpers import farfield_boundary

_FLOOR = ((0.0, 1.0), (0.0, 1.0))      # the whole z=0 face


class TestClassification:
    def test_all_farfield_without_region(self, small_mesh, small_dual,
                                         monkeypatch):
        # a patch off the unit cube: no floor vertex falls in it
        monkeypatch.setattr(boundary, "_WALL_REGION", ((2.0, 3.0), (2.0, 3.0)))
        bc = classify_box_boundary(small_mesh, small_dual)
        assert not bc.wall_mask.any()
        assert np.all(bc.farfield_mask)

    def test_wall_patch_on_floor(self, small_mesh, small_dual, monkeypatch):
        monkeypatch.setattr(boundary, "_WALL_REGION", _FLOOR)
        bc = classify_box_boundary(small_mesh, small_dual)
        walls = bc.vertices[bc.wall_mask]
        assert walls.size > 0
        assert np.all(np.abs(small_mesh.coords[walls, 2]
                             - small_mesh.coords[:, 2].min()) < 1e-9)

    def test_patch_restricts_wall(self, small_mesh, small_dual, monkeypatch):
        bc_patch = classify_box_boundary(small_mesh, small_dual)
        monkeypatch.setattr(boundary, "_WALL_REGION", _FLOOR)
        bc_full = classify_box_boundary(small_mesh, small_dual)
        assert 0 < bc_patch.wall_mask.sum() < bc_full.wall_mask.sum()

    def test_vertices_cover_boundary(self, small_mesh, small_dual):
        bc = classify_box_boundary(small_mesh, small_dual)
        assert np.array_equal(np.sort(bc.vertices),
                              small_dual.boundary_vertices)

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            BoundaryCondition(vertices=np.array([0, 1]),
                              normals=np.zeros((3, 3)),
                              kinds=np.array([0, 1]))


class TestWallBC:
    def test_wall_flux_blocks_mass(self):
        """A slip wall transmits no mass flux regardless of the state."""
        prob = wing_problem(5, 4, 4)
        disc = prob.disc
        rng = np.random.default_rng(0)
        q = rng.random((10, 4))
        n = rng.random((10, 3))
        f = disc._wall_flux(q, n)
        assert np.allclose(f[:, 0], 0.0)

    def test_wall_jacobian_matches_fd(self):
        prob = wing_problem(5, 4, 4)
        disc = prob.disc
        rng = np.random.default_rng(1)
        q = rng.random((6, 4))
        n = rng.random((6, 3))
        ja = disc._wall_flux_jacobian(q, n)
        eps = 1e-7
        for c in range(4):
            qp = q.copy()
            qp[:, c] += eps
            fd = (disc._wall_flux(qp, n) - disc._wall_flux(q, n)) / eps
            assert np.allclose(ja[:, :, c], fd, atol=1e-6)

    def test_compressible_wall_jacobian_matches_fd(self):
        prob = wing_problem(5, 4, 4, compressible=True)
        disc = prob.disc
        rng = np.random.default_rng(2)
        q = np.zeros((6, 5))
        q[:, 0] = 1 + 0.2 * rng.random(6)
        q[:, 1:4] = 0.2 * rng.random((6, 3))
        q[:, 4] = 2.5 + rng.random(6)
        n = rng.random((6, 3))
        ja = disc._wall_flux_jacobian(q, n)
        eps = 1e-7
        for c in range(5):
            qp = q.copy()
            qp[:, c] += eps
            fd = (disc._wall_flux(qp, n) - disc._wall_flux(q, n)) / eps
            assert np.allclose(ja[:, :, c], fd, atol=1e-5)


class TestFarfieldBC:
    def test_farfield_absorbs_freestream(self, small_mesh, small_dual):
        """At the freestream state the farfield flux is the plain
        analytic flux (no dissipation term)."""
        bc = farfield_boundary(small_mesh, small_dual)
        fs = incompressible_freestream(small_mesh.num_vertices)
        disc = IncompressibleEuler(small_mesh, bc, small_dual, farfield=fs)
        q = fs.q
        r = np.zeros_like(q)
        disc._add_boundary_residual(q, r)
        ref = disc._flux(q[bc.vertices], bc.normals)
        acc = np.zeros_like(q)
        np.add.at(acc, bc.vertices, ref)
        assert np.allclose(r, acc)

    def test_missing_farfield_state_raises(self, small_mesh, small_dual):
        bc = farfield_boundary(small_mesh, small_dual)
        disc = IncompressibleEuler(small_mesh, bc, small_dual)
        with pytest.raises(RuntimeError):
            disc.residual(np.zeros(disc.num_unknowns))

    def test_permuted_bc_consistent(self, small_mesh, small_dual, rng):
        """Relabelling vertices + relabelling the BC commutes with the
        residual evaluation."""
        from repro.mesh import compute_dual_metrics
        bc = farfield_boundary(small_mesh, small_dual)
        fs = incompressible_freestream(small_mesh.num_vertices)
        disc = IncompressibleEuler(small_mesh, bc, small_dual, farfield=fs,
                                   second_order=False)
        q = fs.flat() + 0.05 * rng.standard_normal(disc.num_unknowns)
        r = disc.residual(q).reshape(-1, 4)

        perm = rng.permutation(small_mesh.num_vertices)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        mesh2 = small_mesh.permuted(perm)
        dual2 = compute_dual_metrics(mesh2)
        bc2 = farfield_boundary(mesh2, dual2)
        disc2 = IncompressibleEuler(mesh2, bc2, dual2, farfield=fs,
                                    second_order=False)
        q2 = q.reshape(-1, 4)[perm]
        r2 = disc2.residual(q2.ravel()).reshape(-1, 4)
        assert np.allclose(r2, r[perm], atol=1e-11)
