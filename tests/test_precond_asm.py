"""Additive Schwarz / block Jacobi preconditioners."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.euler import wing_problem
from repro.graph.traversal import bfs_levels
from repro.partition import kway_partition
from repro.precond import ASMConfig, AdditiveSchwarz
from repro.solvers import gmres
from repro.sparse import (BSRMatrix, assemble_bsr,
                          block_structure_from_edges)
from tests.helpers import csr_from_dense


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


def _ghost_rows(pc):
    return sum(sd.num_ghost for sd in pc.subdomains)


class TestSetupStructure:
    def test_single_domain_is_plain_ilu(self, mesh_matrix, rng):
        mesh, a = mesh_matrix
        pc = block_jacobi(np.zeros(mesh.num_vertices, dtype=np.int64))
        pc.setup(a)
        assert len(pc.subdomains) == 1
        r = rng.random(a.shape[0])
        from repro.sparse import ilu_bsr
        ref = ilu_bsr(a, 0).solve(r)
        assert np.allclose(pc.solve(r), ref)

    def test_subdomain_counts(self, mesh_matrix):
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 4, seed=0)
        pc = block_jacobi(labels).setup(a)
        assert len(pc.subdomains) == 4
        owned = sum(sd.num_owned for sd in pc.subdomains)
        assert owned == mesh.num_vertices

    def test_zero_overlap_no_ghosts(self, mesh_matrix):
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 4, seed=0)
        pc = block_jacobi(labels).setup(a)
        assert _ghost_rows(pc) == 0
        assert pc.overlap_fraction() == 0.0

    def test_overlap_adds_ghosts(self, mesh_matrix):
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 4, seed=0)
        for delta in (1, 2):
            pc = AdditiveSchwarz(labels, ASMConfig(overlap=delta)).setup(a)
            assert _ghost_rows(pc) > 0
        g1 = AdditiveSchwarz(labels, ASMConfig(overlap=1)).setup(a)
        g2 = AdditiveSchwarz(labels, ASMConfig(overlap=2)).setup(a)
        assert _ghost_rows(g2) > _ghost_rows(g1)

    def test_factor_nnz_grows_with_overlap_and_fill(self, mesh_matrix):
        mesh, a = mesh_matrix
        labels = kway_partition(mesh.vertex_graph(), 4, seed=0)
        pcs = {(delta, k): AdditiveSchwarz(
                   labels, ASMConfig(overlap=delta, fill_level=k)).setup(a)
               for delta, k in ((0, 0), (1, 0), (0, 1))}
        for pc in pcs.values():
            assert pc.total_factor_nnz() == sum(sd.factor_nnz
                                                for sd in pc.subdomains)
        nnz = {key: pc.total_factor_nnz() for key, pc in pcs.items()}
        assert nnz[1, 0] > nnz[0, 0]
        assert nnz[0, 1] > nnz[0, 0]

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
        m = csr_from_dense(a)
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


def _factor_arrays(factor):
    return factor.l_data, factor.u_data, factor.inv_diag


def _two_jacobians(prob, q, labels, csr=False):
    """Two Jacobians of one sparsity, new values (and the labels of
    their rows); ``csr`` as scalar matrices."""
    a1 = prob.disc.shifted_jacobian(q, 10.0)
    a2 = prob.disc.shifted_jacobian(1.01 * q, 20.0)
    if csr:
        return a1.to_csr(), a2.to_csr(), np.repeat(labels, prob.disc.ncomp)
    return a1, a2, labels


class TestRefresh:
    """A second ``setup`` is numeric-only for the sparsity the
    subdomains were cut from — reading the new values through their
    slot maps and writing the factors in place — and a cold set-up for
    any other."""

    @pytest.fixture(scope="class")
    def wing(self):
        prob = wing_problem(7, 5, 4)
        rng = np.random.default_rng(3)
        q = prob.initial.flat() + 0.02 * rng.standard_normal(
            prob.disc.num_unknowns)
        labels = kway_partition(prob.mesh.vertex_graph(), 2, seed=0)
        return prob, q, labels

    @staticmethod
    def _cold(labels, a, engine, storage=np.float64, overlap=1):
        return AdditiveSchwarz(labels, ASMConfig(
            overlap=overlap, fill_level=1, storage_dtype=storage,
            engine=engine)).setup(a)

    @staticmethod
    def _far_pair(prob, labels):
        """Two vertices of one part, as far apart in the mesh as the
        part allows: no ILU(1) fill couples them."""
        g = prob.mesh.vertex_graph()
        part = np.flatnonzero(labels == 0)
        dist = bfs_levels(g, int(part[0]))
        return int(part[0]), int(part[np.argmax(dist[part])])

    @pytest.mark.parametrize("csr", [False, True])
    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_new_values_refresh_bitwise_a_cold_setup(self, wing, engine,
                                                     storage, csr):
        """The refresh writes each factor's own arrays — same objects,
        same memory, same layout, the prepared C solves kept — with
        bitwise the values of a cold set-up."""
        prob, q, labels = wing
        a1, a2, labels = _two_jacobians(prob, q, labels, csr)
        pc = self._cold(labels, a1, engine, storage)
        r = np.random.default_rng(5).standard_normal(a2.shape[0])
        pc.solve(r)                          # prepares the C solves
        before = [(sd.factor, sd.factor.pattern, _factor_arrays(sd.factor),
                   getattr(sd.factor, "_solves", None))
                  for sd in pc.subdomains]
        pc.setup(a2)
        z = pc.solve(r)
        cold = self._cold(labels, a2, engine, storage)
        for sd, want, (factor, pattern, arrays, solves) in zip(
                pc.subdomains, cold.subdomains, before, strict=True):
            assert sd.factor is factor and sd.factor.pattern is pattern
            assert getattr(sd.factor, "_solves", None) is solves
            for got, old, ref in zip(_factor_arrays(sd.factor), arrays,
                                     _factor_arrays(want.factor)):
                assert got is old and np.shares_memory(got, old)
                assert got.dtype == ref.dtype and got.strides == ref.strides
                assert np.array_equal(got, ref)
        assert np.array_equal(z, cold.solve(r))

    def test_row_major_factor_refresh_drops_its_solve_copies(self, wing):
        """The C solves of a row-major factor read column-major copies
        of it (``kernels.trisolver``): a refresh in place must not leave
        an apply reading the old values."""
        prob, q, labels = wing
        a1, a2, labels = _two_jacobians(prob, q, labels)
        pc = self._cold(labels, a1, "compiled")
        for sd in pc.subdomains:
            sd.factor = replace(sd.factor, **{
                name: np.ascontiguousarray(getattr(sd.factor, name))
                for name in ("l_data", "u_data", "inv_diag")})
        r = np.random.default_rng(6).standard_normal(a2.shape[0])
        pc.solve(r)                          # copies made here
        pc.setup(a2)
        assert np.array_equal(pc.solve(r),
                              self._cold(labels, a2, "compiled").solve(r))

    @pytest.mark.parametrize("csr", [False, True])
    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_failed_refresh_leaves_no_factor(self, wing, engine, csr):
        """A zero row that only the last subdomain holds fails its pivot
        after the others were refreshed in place: the instance is left
        empty, not half new, and its next set-up is a cold one."""
        self._fail_a_refresh(wing, engine, csr, np.float64)

    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_failed_fp32_refresh_leaves_no_factor(self, wing, engine):
        """The same with fp32 factors, which the C numeric fills
        through its float64 scratch."""
        self._fail_a_refresh(wing, engine, False, np.float32)

    def _fail_a_refresh(self, wing, engine, csr, storage):
        prob, q, labels = wing
        a1, a2, labels = _two_jacobians(prob, q, labels, csr)
        pc = self._cold(labels, a1, engine, storage)
        others = np.concatenate([sd.rows for sd in pc.subdomains[:-1]])
        row = np.setdiff1d(pc.subdomains[-1].rows, others)[0]
        bad = replace(a2, data=a2.data.copy())
        bad.data[a2.indptr[row]:a2.indptr[row + 1]] = 0.0
        with pytest.raises((np.linalg.LinAlgError, ZeroDivisionError)):
            pc.setup(bad)
        assert not pc.subdomains and pc._pattern is None
        r = np.random.default_rng(8).standard_normal(a2.shape[0])
        with pytest.raises(RuntimeError, match="setup"):
            pc.solve(r)
        pc.setup(a2)
        assert np.array_equal(pc.solve(r),
                              self._cold(labels, a2, engine,
                                         storage).solve(r))

    @pytest.fixture(scope="class")
    def eight_parts(self):
        """The 819-vertex wing's two Jacobians and eight parts."""
        prob = wing_problem(13, 9, 7)
        labels = kway_partition(prob.mesh.vertex_graph(), 8, seed=0)
        return _two_jacobians(prob, prob.initial.flat(), labels)

    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_refresh_allocates_no_second_factor_set(self, eight_parts,
                                                    engine, storage):
        """Eight subdomains: a refresh traces at most one subdomain's
        float64 numeric and its working arrays, under 0.8 x the factor
        set (measured 0.10-0.65); holding a second set, as a rebuilt
        subdomain list does, traces >= 1.06 x."""
        a1, a2, labels = eight_parts
        pc = self._cold(labels, a1, engine, storage, overlap=0)
        total = sum(sd.factor.factor_bytes for sd in pc.subdomains)
        tracemalloc.start()
        try:
            pc.setup(a2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * total, (peak, total)

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
            ref = a.submatrix(sd.rows)
            assert np.array_equal(sd.sub_indptr, ref.indptr)
            assert np.array_equal(sd.sub_indices, ref.indices)
            assert np.array_equal(a.data[sd.slots], ref.data)

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


    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    def test_duplicate_entries_extract_on_the_compiled_tier(self, wing,
                                                            storage):
        """Without a slot map the compiled numeric factors the extracted
        submatrix, cold and on a refresh in place."""
        prob, q, labels = wing
        a = prob.disc.shifted_jacobian(q, 10.0)
        k = a.indptr[1]
        dup = BSRMatrix(
            indptr=np.concatenate([[0], a.indptr[1:] + 1]),
            indices=np.insert(a.indices, k, a.indices[0]),
            data=np.insert(a.data, k, a.data[0], axis=0), nbcols=a.nbcols)
        pc = self._cold(labels, dup, "compiled", storage)
        assert any(sd.slots is None for sd in pc.subdomains)
        before = [_factor_arrays(sd.factor) for sd in pc.subdomains]
        pc.setup(dup)
        for sd, arrays in zip(pc.subdomains, before, strict=True):
            assert all(map(np.shares_memory, _factor_arrays(sd.factor),
                           arrays))
        # the same matrix stored once: its block 0 is the sum, 2 x,
        # and its subdomains read it through their slot maps
        summed = replace(a, data=a.data.copy())
        summed.data[0] *= 2.0
        want = self._cold(labels, summed, "compiled", storage)
        assert all(sd.slots is not None for sd in want.subdomains)
        r = np.random.default_rng(9).standard_normal(a.shape[0])
        assert np.array_equal(pc.solve(r), want.solve(r))


def _reference_apply(pc, r, **change):
    """The apply as a per-subdomain composition: 2-D row gathers and
    row scatters around one solve of a fresh copy of each factor (with
    the fields ``change``), whose operands are checked on that solve."""
    bs = pc.subdomains[0].flat.size // pc.subdomains[0].rows.size
    rb = np.asarray(r, dtype=np.float64).reshape(-1, bs)
    zb = np.zeros_like(rb)
    for sd in pc.subdomains:
        local = replace(sd.factor, **change).solve(rb[sd.rows].ravel()).reshape(-1, bs)
        if pc.config.variant == "rasm":
            zb[sd.rows[sd.owned_local]] += local[sd.owned_local]
        else:
            zb[sd.rows] += local
    return zb.ravel()


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestPreparedApply:
    """``AdditiveSchwarz.solve`` gathers with one ``take`` of each
    subdomain's flat index, makes one ``factor.solve`` per subdomain —
    whose operands were checked on its first solve — and scatters with
    one flat add: bitwise the per-subdomain composition."""

    @pytest.fixture(scope="class")
    def wing(self):
        prob = wing_problem(7, 5, 4)
        rng = np.random.default_rng(11)
        q = prob.initial.flat() + 0.02 * rng.standard_normal(
            prob.disc.num_unknowns)
        a = prob.disc.shifted_jacobian(q, 10.0)
        labels = kway_partition(prob.mesh.vertex_graph(), 3, seed=0)
        r = rng.standard_normal(a.shape[0])
        r[::7] = -0.0
        return a, labels, r

    @staticmethod
    def _pc(wing, variant="rasm", overlap=1, storage=np.float64,
            csr=False, engine="compiled"):
        a, labels, _ = wing
        if csr:
            a, labels = a.to_csr(), np.repeat(labels, a.bs)
        return AdditiveSchwarz(labels, ASMConfig(
            overlap=overlap, fill_level=1, variant=variant,
            storage_dtype=storage, engine=engine)).setup(a)

    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    @pytest.mark.parametrize("csr", [False, True])
    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    @pytest.mark.parametrize("overlap", [0, 1])
    @pytest.mark.parametrize("variant", ["rasm", "asm"])
    def test_bitwise_the_composition(self, wing, variant, overlap, storage,
                                     csr, engine):
        pc = self._pc(wing, variant, overlap, storage, csr, engine)
        r = wing[2]
        want = _bits(_reference_apply(pc, r))
        assert np.array_equal(_bits(pc.solve(r)), want)
        assert np.array_equal(_bits(pc.solve(r)), want)   # prepared

    def test_row_major_factor(self, wing):
        """A numpy-tier (row-major) block factor on the compiled engine
        is solved through a column-major copy: the same bits."""
        pc = self._pc(wing)
        r = wing[2]
        want = _bits(pc.solve(r))
        for sd in pc.subdomains:
            f = sd.factor
            sd.factor = replace(f, l_data=np.ascontiguousarray(f.l_data),
                                u_data=np.ascontiguousarray(f.u_data),
                                inv_diag=np.ascontiguousarray(f.inv_diag))
            assert not sd.factor.l_data.transpose(0, 2, 1).flags.c_contiguous
        assert np.array_equal(_bits(_reference_apply(pc, r)), want)
        assert np.array_equal(_bits(pc.solve(r)), want)

    @pytest.mark.parametrize("csr", [False, True])
    def test_one_factor_solve_per_subdomain(self, wing, csr, monkeypatch):
        """The e2e shims time ``ILUFactor*.solve`` as ``sparse.trisolve``:
        exactly one call per subdomain per apply, on its local vector."""
        import repro.sparse.ilu as ilu_mod
        pc = self._pc(wing, csr=csr)
        cls = ilu_mod.ILUFactorCSR if csr else ilu_mod.ILUFactorBSR
        calls = []
        solve = cls.solve

        def counted(factor, b, *args):
            calls.append((factor, b.size))
            return solve(factor, b, *args)

        monkeypatch.setattr(cls, "solve", counted)
        for _ in range(2):
            pc.solve(wing[2])
        assert calls == [(sd.factor, sd.flat.size)
                         for sd in pc.subdomains] * 2

    def test_kill_switch_takes_effect_at_the_next_apply(self, wing,
                                                        monkeypatch):
        """``REPRO_KERNELS_DISABLE=1`` set between two applies of one
        instance sends the second down the numpy batches."""
        from repro.kernels import capability
        if capability.resolve_engine("compiled") != "c":
            pytest.skip("no compiled backend (cffi + cc)")
        import repro.sparse.ilu as ilu_mod
        pc = self._pc(wing)
        r = wing[2]
        numpy_tier = _bits(_reference_apply(pc, r, engine="numpy"))
        batches = []
        lower = ilu_mod.lower_solve_blocks

        def spy(*args):
            batches.append(args[3].size)
            return lower(*args)

        monkeypatch.setattr(ilu_mod, "lower_solve_blocks", spy)
        pc.solve(r)
        assert batches == []
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "1")
        assert np.array_equal(_bits(pc.solve(r)), numpy_tier)
        assert batches == [sd.flat.size for sd in pc.subdomains]
