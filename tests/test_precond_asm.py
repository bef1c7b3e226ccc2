"""Additive Schwarz / block Jacobi preconditioners."""

import numpy as np
import pytest

from repro.euler import wing_problem
from repro.graph.traversal import bfs_levels
from repro.partition import kway_partition
from repro.precond import ASMConfig, AdditiveSchwarz
from repro.solvers import gmres
from repro.sparse import (BSRMatrix, CSRMatrix, assemble_bsr,
                          block_structure_from_edges)


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


def _grown(a: BSRMatrix, i: int, j: int) -> BSRMatrix:
    """``a`` with one more coupling block, at (i, j)."""
    block = np.eye(a.bs)[None] * 0.25
    rows = np.concatenate([a.row_of, [i]])
    cols = np.concatenate([a.indices, [j]])
    out = BSRMatrix.from_block_coo(rows, cols,
                                   np.concatenate([a.data, block]),
                                   (a.nbrows, a.nbcols))
    out.engine = a.engine
    return out


class TestRefresh:
    """A second ``setup`` is numeric-only for the sparsity the
    subdomains were cut from — reading the new values through their
    slot maps — and a cold set-up for any other."""

    @pytest.fixture(scope="class")
    def wing(self):
        prob = wing_problem(7, 5, 4)
        rng = np.random.default_rng(3)
        q = prob.initial.flat() + 0.02 * rng.standard_normal(
            prob.disc.num_unknowns)
        labels = kway_partition(prob.mesh.vertex_graph(), 2, seed=0)
        return prob, q, labels

    @staticmethod
    def _cold(labels, a, engine):
        return AdditiveSchwarz(labels, ASMConfig(
            overlap=1, fill_level=1, engine=engine)).setup(a)

    @staticmethod
    def _far_pair(prob, labels):
        """Two vertices of one part, as far apart in the mesh as the
        part allows: no ILU(1) fill couples them."""
        g = prob.mesh.vertex_graph()
        part = np.flatnonzero(labels == 0)
        dist = bfs_levels(g, int(part[0]))
        return int(part[0]), int(part[np.argmax(dist[part])])

    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_new_values_refresh_bitwise_a_cold_setup(self, wing, engine):
        prob, q, labels = wing
        a1 = prob.disc.shifted_jacobian(q, 10.0)
        a2 = prob.disc.shifted_jacobian(1.01 * q, 20.0)
        pc = self._cold(labels, a1, engine)
        patterns = [sd.factor.pattern for sd in pc.subdomains]
        pc.setup(a2)
        assert [sd.factor.pattern for sd in pc.subdomains] == patterns
        r = np.random.default_rng(5).standard_normal(a2.shape[0])
        assert np.array_equal(pc.solve(r),
                              self._cold(labels, a2, engine).solve(r))

    @pytest.mark.parametrize("csr", [False, True])
    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_grown_pattern_refresh_is_a_cold_setup(self, wing, engine, csr):
        """One extra coupling block, same row count: the refresh must
        not reuse the old subdomains (they would drop the block)."""
        prob, q, labels = wing
        a = prob.disc.shifted_jacobian(q, 10.0)
        grown = _grown(a, *self._far_pair(prob, labels))
        if csr:
            a, grown = a.to_csr(), grown.to_csr()
            labels = np.repeat(labels, prob.disc.ncomp)
        pc = self._cold(labels, a, engine)
        pc.setup(grown)
        r = np.random.default_rng(7).standard_normal(grown.shape[0])
        ref = self._cold(labels, grown, engine).solve(r)
        assert np.array_equal(pc.solve(r), ref)
        assert not np.array_equal(self._cold(labels, a, engine).solve(r),
                                  ref)

    @pytest.mark.parametrize("csr", [False, True])
    def test_slot_map_reads_the_submatrix(self, wing, csr):
        prob, q, labels = wing
        a = prob.disc.shifted_jacobian(q, 10.0)
        if csr:
            a, labels = a.to_csr(), np.repeat(labels, prob.disc.ncomp)
        for sd in self._cold(labels, a, "numpy").subdomains:
            assert sd.slots is not None
            got, ref = sd.submatrix(a), a.submatrix(sd.rows)
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.data, ref.data)

    def test_duplicate_entries_fall_back_to_extraction(self, wing):
        """``submatrix`` sums blocks stored twice; a slot map cannot, so
        such a matrix is extracted on every refresh."""
        prob, q, labels = wing
        a = prob.disc.shifted_jacobian(q, 10.0)
        k = a.indptr[1]                      # block row 0 stores its
        dup = BSRMatrix(                     # first block twice
            indptr=np.concatenate([[0], a.indptr[1:] + 1]),
            indices=np.insert(a.indices, k, a.indices[0]),
            data=np.insert(a.data, k, a.data[0], axis=0), nbcols=a.nbcols)
        pc = self._cold(labels, dup, "numpy")
        assert any(sd.slots is None for sd in pc.subdomains)
        pc.setup(dup)
        r = np.random.default_rng(9).standard_normal(a.shape[0])
        assert np.array_equal(pc.solve(r),
                              self._cold(labels, dup, "numpy").solve(r))
