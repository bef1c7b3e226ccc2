"""Additive Schwarz / block Jacobi preconditioners."""

import numpy as np
import pytest

from repro.partition import kway_partition
from repro.precond import ASMConfig, AdditiveSchwarz
from repro.solvers import gmres
from repro.sparse import (CSRMatrix, assemble_bsr, block_structure_from_edges,
                          )


def block_jacobi(labels, fill_level=0):
    """Block Jacobi = additive Schwarz with zero overlap."""
    return AdditiveSchwarz(labels, ASMConfig(overlap=0,
                                             fill_level=fill_level))


@pytest.fixture(scope="module")
def mesh_matrix(small_mesh, rng):
    """A well-conditioned block matrix on the small mesh's pattern."""
    bs = 2
    st = block_structure_from_edges(small_mesh.num_vertices,
                                    small_mesh.edges)
    n, ne = small_mesh.num_vertices, small_mesh.num_edges
    deg = np.asarray(small_mesh.vertex_graph().degrees(), dtype=float)
    diag = (np.eye(bs)[None] * (deg[:, None, None] + 2)
            + 0.1 * rng.standard_normal((n, bs, bs)))
    off = -np.eye(bs)[None] * 0.5 + 0.05 * rng.standard_normal((ne, bs, bs))
    off2 = -np.eye(bs)[None] * 0.5 + 0.05 * rng.standard_normal((ne, bs, bs))
    return small_mesh, assemble_bsr(st, bs, diag, off, off2)


class TestSetupStructure:
    def test_single_domain_is_plain_ilu(self, mesh_matrix, rng):
        mesh, a = mesh_matrix
        pc = block_jacobi(np.zeros(mesh.num_vertices, dtype=np.int64))
        pc.setup(a)
        assert pc.num_subdomains == 1
        r = rng.random(a.shape[0])
        from repro.sparse import ilu_bsr
        ref = ilu_bsr(a, 0).solve(r)
        assert np.allclose(pc.solve(r), ref)

    def test_subdomain_counts(self, mesh_matrix):
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 4, seed=0)
        pc = block_jacobi(labels).setup(a)
        assert pc.num_subdomains == 4
        owned = sum(sd.num_owned for sd in pc.subdomains)
        assert owned == mesh.num_vertices

    def test_zero_overlap_no_ghosts(self, mesh_matrix):
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 4, seed=0)
        pc = block_jacobi(labels).setup(a)
        assert pc.ghost_rows_total() == 0
        assert pc.overlap_fraction() == 0.0

    def test_overlap_adds_ghosts(self, mesh_matrix):
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 4, seed=0)
        for delta in (1, 2):
            pc = AdditiveSchwarz(labels, ASMConfig(overlap=delta)).setup(a)
            assert pc.ghost_rows_total() > 0
        g1 = AdditiveSchwarz(labels, ASMConfig(overlap=1)).setup(a)
        g2 = AdditiveSchwarz(labels, ASMConfig(overlap=2)).setup(a)
        assert g2.ghost_rows_total() > g1.ghost_rows_total()

    def test_communication_phases(self, mesh_matrix):
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 2, seed=0)
        rasm = AdditiveSchwarz(labels, ASMConfig(overlap=1,
                                                 variant="rasm")).setup(a)
        asm = AdditiveSchwarz(labels, ASMConfig(overlap=1,
                                                variant="asm")).setup(a)
        assert rasm.communication_phases() == 1
        assert asm.communication_phases() == 2

    def test_solve_before_setup_raises(self, mesh_matrix):
        mesh, a = mesh_matrix
        pc = block_jacobi(np.zeros(mesh.num_vertices, dtype=np.int64))
        with pytest.raises(RuntimeError):
            pc.solve(np.ones(a.shape[0]))

    def test_bad_label_count_raises(self, mesh_matrix):
        mesh, a = mesh_matrix
        with pytest.raises(ValueError):
            block_jacobi(np.zeros(5, dtype=np.int64)).setup(a)

    def test_threads_knob_is_gone(self):
        # Deleted in PR 20: a loud TypeError, not a silent 1-thread run.
        with pytest.raises(TypeError):
            ASMConfig(threads=2)


class TestConvergenceEffects:
    """The algorithmic facts the paper's Tables 3-4 rest on."""

    def _its(self, a, pc, rng):
        b = rng.random(a.shape[0])
        res = gmres(a, b, M=pc, rtol=1e-8, restart=30, maxiter=400)
        assert res.converged
        return res.iterations

    def test_more_subdomains_weaker_preconditioner(self, mesh_matrix, rng):
        mesh, a = mesh_matrix
        g = mesh.vertex_graph()
        its = []
        for p in (1, 4, 16):
            labels = (np.zeros(mesh.num_vertices, dtype=np.int64) if p == 1
                      else kway_partition(g, p, seed=0))
            its.append(self._its(a, block_jacobi(labels).setup(a), rng))
        assert its[0] <= its[1] <= its[2]
        assert its[2] > its[0]

    def test_overlap_reduces_iterations(self, mesh_matrix, rng):
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 8, seed=0)
        its0 = self._its(a, AdditiveSchwarz(
            labels, ASMConfig(overlap=0, fill_level=0)).setup(a), rng)
        its1 = self._its(a, AdditiveSchwarz(
            labels, ASMConfig(overlap=1, fill_level=0)).setup(a), rng)
        assert its1 <= its0

    def test_fill_reduces_iterations(self, mesh_matrix, rng):
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 8, seed=0)
        its = [self._its(a, AdditiveSchwarz(
            labels, ASMConfig(overlap=0, fill_level=k)).setup(a), rng)
            for k in (0, 2)]
        assert its[1] <= its[0]

    def test_fp32_storage_same_iterations(self, mesh_matrix, rng):
        """Table 2's premise: storage precision does not change the
        iteration count of an already-approximate preconditioner."""
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 4, seed=0)
        its64 = self._its(a, AdditiveSchwarz(
            labels, ASMConfig(fill_level=1)).setup(a), rng)
        its32 = self._its(a, AdditiveSchwarz(
            labels, ASMConfig(fill_level=1,
                              storage_dtype=np.float32)).setup(a), rng)
        assert abs(its64 - its32) <= 1

    def test_rasm_not_worse_than_asm(self, mesh_matrix, rng):
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 8, seed=0)
        its_rasm = self._its(a, AdditiveSchwarz(
            labels, ASMConfig(overlap=1, variant="rasm")).setup(a), rng)
        its_asm = self._its(a, AdditiveSchwarz(
            labels, ASMConfig(overlap=1, variant="asm")).setup(a), rng)
        assert its_rasm <= its_asm + 2


class TestScalarMatrix:
    def test_works_on_csr(self, rng):
        n = 60
        a = rng.standard_normal((n, n)) * 0.2 + np.eye(n) * 4
        m = CSRMatrix.from_dense(a)
        labels = np.repeat(np.arange(4), 15)
        pc = block_jacobi(labels).setup(m)
        b = rng.random(n)
        res = gmres(m, b, M=pc, rtol=1e-9)
        assert res.converged
        assert np.allclose(a @ res.x, b, atol=1e-6)
