"""ILU(k) factorisation: symbolic fill levels, numeric accuracy, and the
compiled tier against the row-loop oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (CSRMatrix, ilu_bsr, ilu_bsr_ref, ilu_csr,
                          ilu_csr_ref, ilu_symbolic, ilu_symbolic_ref)
from repro.sparse.bsr import BSRMatrix
from tests.helpers import csr_from_dense


def diag_dominant(n, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a[np.abs(a) < np.quantile(np.abs(a), 1 - density)] = 0.0
    a += np.eye(n) * (np.abs(a).sum(axis=1).max() + 1)
    return a


class TestSymbolic:
    def test_ilu0_pattern_is_input_pattern(self):
        a = diag_dominant(20, 0.2, 0)
        m = csr_from_dense(a)
        pat = ilu_symbolic(m.indptr, m.indices, 0)
        assert pat.nnz == m.nnz
        assert np.all(pat.l_levels == 0)
        assert np.all(pat.u_levels == 0)

    def test_fill_monotone_in_level(self):
        a = diag_dominant(25, 0.15, 1)
        m = csr_from_dense(a)
        sizes = [ilu_symbolic(m.indptr, m.indices, k).nnz for k in range(4)]
        assert all(s2 >= s1 for s1, s2 in zip(sizes, sizes[1:]))

    def test_full_fill_matches_dense_lu_pattern(self):
        """With level n the pattern must contain the exact LU fill."""
        a = diag_dominant(12, 0.25, 2)
        m = csr_from_dense(a)
        pat = ilu_symbolic(m.indptr, m.indices, 12)
        import scipy.linalg as sla
        p, l, u = sla.lu(a)
        assert np.allclose(p, np.eye(12))  # diag dominance: no pivoting
        for i in range(12):
            cols = set(pat.l_indices[pat.l_indptr[i]:pat.l_indptr[i+1]].tolist())
            lu_cols = set(np.nonzero(np.abs(l[i, :i]) > 1e-13)[0].tolist())
            assert lu_cols <= cols

    def test_levels_bounded(self):
        a = diag_dominant(20, 0.2, 3)
        m = csr_from_dense(a)
        pat = ilu_symbolic(m.indptr, m.indices, 2)
        assert pat.l_levels.max(initial=0) <= 2
        assert pat.u_levels.max(initial=0) <= 2

    def test_missing_diagonal_inserted(self):
        a = np.array([[0.0, 1.0], [1.0, 3.0]])
        # Structurally missing (0,0); symbolic must insert it.
        rows, cols = np.nonzero(a)
        m = CSRMatrix.from_coo(rows, cols, a[rows, cols], (2, 2))
        pat = ilu_symbolic(m.indptr, m.indices, 0)
        assert pat.nnz == m.nnz + 1


class TestNumericCSR:
    def test_full_fill_equals_direct_solve(self, rng):
        a = diag_dominant(25, 0.2, 4)
        m = csr_from_dense(a)
        f = ilu_csr(m, 25)
        b = rng.random(25)
        assert np.allclose(a @ f.solve(b), b, atol=1e-9)

    def test_ilu0_product_matches_a_on_pattern(self):
        """The defining ILU(0) property: (L U)_ij = a_ij on the pattern."""
        a = diag_dominant(15, 0.25, 5)
        m = csr_from_dense(a)
        f = ilu_csr(m, 0)
        n = 15
        L = np.eye(n)
        U = np.zeros((n, n))
        p = f.pattern
        for i in range(n):
            L[i, p.l_indices[p.l_indptr[i]:p.l_indptr[i+1]]] = \
                f.l_data[p.l_indptr[i]:p.l_indptr[i+1]]
            U[i, p.u_indices[p.u_indptr[i]:p.u_indptr[i+1]]] = \
                f.u_data[p.u_indptr[i]:p.u_indptr[i+1]]
            U[i, i] = 1.0 / f.inv_diag[i]
        prod = L @ U
        mask = a != 0
        assert np.allclose(prod[mask], a[mask], atol=1e-10)

    def test_preconditioner_quality_improves_with_fill(self, rng):
        a = diag_dominant(40, 0.15, 6)
        m = csr_from_dense(a)
        b = rng.random(40)
        errs = []
        for k in range(3):
            f = ilu_csr(m, k)
            errs.append(np.linalg.norm(a @ f.solve(b) - b))
        assert errs[2] <= errs[0] + 1e-12

    def test_zero_pivot_raises(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        rows, cols = np.nonzero(a)
        m = CSRMatrix.from_coo(rows, cols, a[rows, cols], (2, 2))
        with pytest.raises(ZeroDivisionError):
            ilu_csr(m, 0)

    def test_reuse_pattern(self, rng):
        a = diag_dominant(20, 0.2, 7)
        m = csr_from_dense(a)
        f1 = ilu_csr(m, 1)
        pat = f1.pattern
        f2 = ilu_csr(m, fill_level=99, into=f1)  # the factor's pattern wins
        assert f2 is f1 and f2.pattern is pat
        b = rng.random(20)
        assert np.array_equal(ilu_csr(m, 1).solve(b), f2.solve(b))

    def test_fp32_storage_close_and_smaller(self, rng):
        a = diag_dominant(20, 0.2, 8)
        m = csr_from_dense(a)
        f64 = ilu_csr(m, 1)
        f32 = ilu_csr(m, 1, storage_dtype=np.float32)
        b = rng.random(20)
        assert f32.factor_bytes * 2 == f64.factor_bytes
        rel = (np.linalg.norm(f32.solve(b) - f64.solve(b))
               / np.linalg.norm(f64.solve(b)))
        assert rel < 1e-5
        # Arithmetic stays double: the result is float64.
        assert f32.solve(b).dtype == np.float64


class TestNumericBSR:
    def _bsr_from_mesh(self, mesh, bs, seed):
        from repro.sparse import assemble_bsr, block_structure_from_edges
        rng = np.random.default_rng(seed)
        st = block_structure_from_edges(mesh.num_vertices, mesh.edges)
        n, ne = mesh.num_vertices, mesh.num_edges
        diag = rng.standard_normal((n, bs, bs)) + 20 * np.eye(bs)
        return assemble_bsr(st, bs, diag,
                            off_ij=rng.standard_normal((ne, bs, bs)),
                            off_ji=rng.standard_normal((ne, bs, bs)))

    def test_full_fill_equals_direct(self, tiny_mesh, rng):
        a = self._bsr_from_mesh(tiny_mesh, 2, 0)
        f = ilu_bsr(a, tiny_mesh.num_vertices)
        b = rng.random(a.shape[0])
        assert np.allclose(a.to_csr() @ f.solve(b), b, atol=1e-8)

    def test_block_ilu0_good_preconditioner(self, tiny_mesh, rng):
        a = self._bsr_from_mesh(tiny_mesh, 3, 1)
        f = ilu_bsr(a, 0)
        b = rng.random(a.shape[0])
        x = f.solve(b)
        rel = np.linalg.norm(a.to_csr() @ x - b) / np.linalg.norm(b)
        assert rel < 0.5  # strong diagonal: ILU(0) is a decent inverse

    def test_fp32_storage(self, tiny_mesh, rng):
        a = self._bsr_from_mesh(tiny_mesh, 2, 2)
        f64 = ilu_bsr(a, 0)
        f32 = ilu_bsr(a, 0, storage_dtype=np.float32)
        assert f32.factor_bytes * 2 == f64.factor_bytes
        b = rng.random(a.shape[0])
        assert np.allclose(f32.solve(b), f64.solve(b), rtol=1e-4, atol=1e-5)

    def test_matches_scalar_ilu_when_bs1(self, rng):
        a = diag_dominant(18, 0.25, 9)
        m = csr_from_dense(a)
        bsr1 = BSRMatrix(indptr=m.indptr, indices=m.indices,
                         data=m.data.reshape(-1, 1, 1), nbcols=18)
        b = rng.random(18)
        assert np.allclose(ilu_bsr(bsr1, 1).solve(b),
                           ilu_csr(m, 1).solve(b), atol=1e-12)


# ----------------------------------------------------------------------
# The compiled tier: C symbolic and numeric phases against the oracles,
# natural-order trisolves, typed failures, no schedules on the path.
# ----------------------------------------------------------------------

EPS = np.finfo(np.float64).eps
#: normwise bound of a compiled block factor against ``ilu_bsr_ref``,
#: fixed before the kernel was measured
FACTOR_EPS = 64


def has_backend():
    from repro import kernels
    return kernels.backend_for("compiled") is not None


def random_pattern(n, density, seed, drop_diag, shuffle):
    """A square sparsity as raw (indptr, indices): random columns per
    row, some diagonals structurally absent, rows optionally unsorted
    and with a repeated column."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, rng.random(n) >= drop_diag)
    rows = []
    for i in range(n):
        cols = np.flatnonzero(mask[i])
        if shuffle and cols.size:
            cols = np.concatenate([rng.permutation(cols), cols[:1]])
        rows.append(cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([c.size for c in rows], out=indptr[1:])
    indices = (np.concatenate(rows) if indptr[-1]
               else np.empty(0, dtype=np.int64)).astype(np.int64)
    return indptr, indices


PATTERN_FIELDS = ("l_indptr", "l_indices", "l_levels",
                  "u_indptr", "u_indices", "u_levels")


class TestCompiledSymbolic:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 40), st.floats(0.0, 0.35), st.integers(0, 3),
           st.integers(0, 10_000), st.floats(0.0, 0.5), st.booleans())
    def test_matches_heapq_oracle(self, n, density, k, seed, drop_diag,
                                  shuffle):
        """Integer-exact: every pattern array of the C level-of-fill
        loop equals the ``heapq`` loop's, missing diagonals included."""
        from repro import kernels
        indptr, indices = random_pattern(n, density, seed, drop_diag,
                                         shuffle)
        want = ilu_symbolic_ref(indptr, indices, k)
        got = ilu_symbolic(indptr, indices, k, engine="compiled")
        if has_backend():
            assert kernels.ilu_symbolic(indptr, indices, k,
                                        "compiled") is not None
        assert (got.n, got.fill_level) == (want.n, want.fill_level)
        for name in PATTERN_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                name

    def test_capacity_growth_on_dense_fill(self):
        """A row-coupled pattern whose fill far exceeds the first output
        guess still comes out exact."""
        n = 60
        indptr, indices = random_pattern(n, 0.08, 3, 0.0, False)
        for k in (3, n):
            want = ilu_symbolic_ref(indptr, indices, k)
            got = ilu_symbolic(indptr, indices, k, engine="compiled")
            for name in PATTERN_FIELDS:
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name))

    def test_numpy_tier_runs_the_reference(self, monkeypatch):
        """An engine="numpy" factorisation never asks for the C loop."""
        from repro import kernels

        def forbidden(*args):
            raise AssertionError("numpy tier reached the compiled kernel")

        monkeypatch.setattr(kernels, "ilu_symbolic", forbidden)
        m = csr_from_dense(diag_dominant(12, 0.3, 4))
        want = ilu_symbolic_ref(m.indptr, m.indices, 2)
        got = ilu_csr(m, 2).pattern
        for name in PATTERN_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_column_out_of_range_declines(self, bad):
        from repro import kernels
        indptr = np.array([0, 2, 3, 4, 5, 6], dtype=np.int64)
        indices = np.array([0, bad, 1, 2, 3, 4], dtype=np.int64)
        assert kernels.ilu_symbolic(indptr, indices, 1, "compiled") is None


def _bsr_of(dense_blocks, mask):
    nb = mask.shape[0]
    indptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    rows, cols = np.nonzero(mask)
    return BSRMatrix(indptr, cols.astype(np.int64),
                     dense_blocks[rows, cols].copy(), nb)


def random_bsr(nb, bs, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((nb, nb)) < density
    np.fill_diagonal(mask, True)
    blocks = rng.standard_normal((nb, nb, bs, bs))
    blocks[np.arange(nb), np.arange(nb)] += np.eye(bs) * (bs * nb)
    return _bsr_of(blocks, mask)


def normwise_eps(got, want):
    """||got - want|| / ||want|| in units of fp64 epsilon."""
    scale = np.linalg.norm(want)
    err = np.linalg.norm(np.asarray(got) - np.asarray(want))
    return 0.0 if err == 0.0 else err / (scale * EPS)


class TestCompiledNumeric:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 40), st.floats(0.05, 0.4), st.integers(0, 3),
           st.integers(0, 10_000))
    def test_csr_bitwise_row_loop(self, n, density, k, seed):
        """The scalar C loop divides by the raw pivot and updates in the
        reference's order: bitwise ``ilu_csr_ref``."""
        m = csr_from_dense(diag_dominant(n, density, seed))
        got = ilu_csr(m, k, engine="compiled")
        want = ilu_csr_ref(m, k)
        for name in ("l_data", "u_data", "inv_diag"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 16), st.sampled_from([2, 3, 4, 5, 7, 9, 12, 17]),
           st.floats(0.1, 0.5), st.integers(0, 3), st.integers(0, 10_000))
    def test_bsr_normwise_row_loop(self, nb, bs, density, k, seed):
        a = random_bsr(nb, bs, density, seed)
        got = ilu_bsr(a, k, engine="compiled")
        want = ilu_bsr_ref(a, k)
        for name in ("l_data", "u_data", "inv_diag"):
            assert normwise_eps(getattr(got, name),
                                getattr(want, name)) <= FACTOR_EPS, name

    def test_fp32_storage_is_the_cast_fp64_factor(self):
        a = random_bsr(12, 5, 0.3, 1)
        f64 = ilu_bsr(a, 2, engine="compiled")
        f32 = ilu_bsr(a, 2, engine="compiled", storage_dtype=np.float32)
        assert f32.storage_dtype == np.float32
        assert np.array_equal(f32.u_data, f64.u_data.astype(np.float32))


def _same_bytes(got, want):
    """Same dtype, same memory layout, same bytes."""
    return (got.dtype == want.dtype and got.strides == want.strides
            and np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(want).tobytes())


def _factor_arrays(f):
    return f.l_data, f.u_data, f.inv_diag


class TestDirectStorage:
    """The block numeric writes the factor it keeps: fp32 storage is
    filled value by value, and a principal submatrix is read through
    its slot map — each bitwise the two-step path it replaces."""

    @staticmethod
    def _pair(bs):
        a1 = random_bsr(18, bs, 0.3, bs)
        a2 = replace(a1, data=a1.data * (1.0 + 0.1 * np.random.default_rng(
            bs).standard_normal(a1.data.shape)))
        return a1, a2

    @pytest.mark.parametrize("bs", [3, 4, 5])
    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_fp32_factor_is_the_cast_fp64_factor(self, engine, bs):
        """Cold and refreshed in place: every array has the bytes and
        layout of the fp64 factor's ``astype``."""
        a1, a2 = self._pair(bs)
        f32 = ilu_bsr(a1, 2, storage_dtype=np.float32, engine=engine)
        for a in (a1, a2):
            if a is a2:
                arrays = _factor_arrays(f32)
                assert ilu_bsr(a2, into=f32) is f32
                assert all(map(np.shares_memory, _factor_arrays(f32),
                               arrays))
            want = ilu_bsr(a, 2, engine=engine)
            for got, ref in zip(_factor_arrays(f32), _factor_arrays(want)):
                assert _same_bytes(got, ref.astype(np.float32))

    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_slot_gathered_factor_is_the_extracted_one(self, engine,
                                                       storage):
        """A principal submatrix factored through its slots, cold and
        refreshed in place, is bitwise the factor of the extracted
        submatrix."""
        from repro.precond.subdomain import _principal_slots
        a1, a2 = self._pair(5)
        rows = np.flatnonzero(np.arange(a1.nbrows) % 3 != 1)
        cut = _principal_slots(a1, rows)
        got = ilu_bsr(a1, 2, storage, engine, slots=cut)
        for a in (a1, a2):
            if a is a2:
                assert ilu_bsr(a2, into=got, slots=cut) is got
            want = ilu_bsr(a.submatrix(rows), 2, storage, engine)
            for x, y in zip(_factor_arrays(got), _factor_arrays(want)):
                assert _same_bytes(x, y)

    @pytest.mark.parametrize("bad", [-1, "past_end"])
    def test_slot_out_of_range_declines(self, bad):
        """A slot outside A's blocks makes the C kernel decline (it
        checks each before it reads through it), and the numpy path
        raises ``IndexError``: a negative slot too, which numpy
        indexing alone would wrap round to A's last blocks."""
        from repro import kernels
        from repro.precond.subdomain import _principal_slots
        a = random_bsr(12, 4, 0.3, 2)
        rows = np.arange(1, a.nbrows)
        indptr, indices, slots = _principal_slots(a, rows)
        good = ilu_bsr(a, 1, engine="compiled",
                       slots=(indptr, indices, slots))
        slots = slots.copy()
        slots[indptr[3]] = -1 if bad == -1 else a.nnzb
        assert kernels.ilu_numeric(good.pattern, indptr, indices, a.data,
                                   "compiled", slots=slots) is None
        with pytest.raises(IndexError):
            ilu_bsr(a, into=good, slots=(indptr, indices, slots))


def _level_order_solve(factor, b):
    """The compiled trisolves' arithmetic (sequential sums in entry
    order, f32 values widened first) as a Python row loop visiting the
    rows level by level: the order the kernels walked before they
    switched to natural order."""
    from repro.sparse.trisolve import level_schedule
    p, bs = factor.pattern, getattr(factor, "bs", 1)
    lower, upper = (level_schedule(p.l_indptr, p.l_indices),
                    level_schedule(p.u_indptr, p.u_indices, reverse=True))
    ld = factor.l_data.reshape(-1, bs, bs).astype(np.float64).tolist()
    ud = factor.u_data.reshape(-1, bs, bs).astype(np.float64).tolist()
    inv = factor.inv_diag.reshape(-1, bs, bs).astype(np.float64).tolist()
    x = np.asarray(b, dtype=np.float64).reshape(-1, bs).tolist()

    def dot_rows(indptr, indices, data, i):
        acc = [0.0] * bs
        for t in range(indptr[i], indptr[i + 1]):
            xj = x[indices[t]]
            for r in range(bs):
                s = 0.0
                for c in range(bs):
                    s += data[t][r][c] * xj[c]
                acc[r] += s
        return acc

    for i in np.concatenate(lower).tolist():
        acc = dot_rows(p.l_indptr, p.l_indices, ld, i)
        x[i] = [x[i][r] - acc[r] for r in range(bs)]
    for i in np.concatenate(upper).tolist():
        acc = dot_rows(p.u_indptr, p.u_indices, ud, i)
        rhs = [x[i][r] - acc[r] for r in range(bs)]
        if bs == 1:
            x[i] = [rhs[0] * inv[i][0][0]]
            continue
        out = []
        for r in range(bs):
            s = 0.0
            for c in range(bs):
                s += inv[i][r][c] * rhs[c]
            out.append(s)
        x[i] = out
    return np.array(x).ravel()


class TestNaturalOrderTrisolve:
    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", ["csr", "bsr"])
    def test_natural_order_equals_level_order(self, layout, storage, rng):
        """Rows 0..n-1 (L) and n-1..0 (U) resolve every dependency the
        level schedule does, so the compiled result is bitwise the
        level-ordered one; CSR is also bitwise the numpy batches."""
        a = random_bsr(30, 4, 0.15, 5)
        if layout == "csr":
            a = a.to_csr()
        ilu = ilu_csr if layout == "csr" else ilu_bsr
        fac = ilu(a, 2, storage_dtype=storage, engine="compiled")
        b = rng.standard_normal(a.shape[0])
        got, want = fac.solve(b), _level_order_solve(fac, b)
        if layout == "bsr" and not has_backend():
            # the numpy batches' einsum pairs block sums: normwise only
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12
                                       * max(1.0, np.abs(want).max()))
        else:
            assert np.array_equal(got, want)
        if layout == "csr":
            ref = ilu(a, 2, storage_dtype=storage)
            assert np.array_equal(got, ref.solve(b))

    def test_compiled_factor_builds_levels_only_on_demand(self, rng):
        a = random_bsr(20, 3, 0.2, 2)
        fac = ilu_bsr(a, 1, engine="compiled")
        b = rng.standard_normal(a.shape[0])
        fac.solve(b)
        assert (fac.solve_levels is None) == has_backend()
        numpy_view = replace(fac, engine="numpy")
        numpy_view.solve(b)
        assert numpy_view.solve_levels is not None


class TestTypedFailures:
    """A bad pivot or a bad index fails the same way on both tiers."""

    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_zero_scalar_pivot_names_row(self, engine):
        # row 2 eliminates to an exact zero pivot
        dense = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                          [4.0, 0.0, 2.0]])
        m = csr_from_dense(dense)
        with pytest.raises(ZeroDivisionError, match="row 2"):
            ilu_csr(m, 0, engine=engine)

    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_singular_pivot_block(self, engine):
        blocks = np.zeros((2, 2, 2, 2))
        blocks[0, 0] = np.eye(2)
        blocks[1, 1] = [[1.0, 2.0], [2.0, 4.0]]
        a = _bsr_of(blocks, np.eye(2, dtype=bool))
        with pytest.raises(np.linalg.LinAlgError):
            ilu_bsr(a, 0, engine=engine)

    @pytest.mark.parametrize("bad", [-1, "past_end"])
    @pytest.mark.parametrize("layout", ["csr", "bsr"])
    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_column_out_of_range_raises(self, engine, layout, bad):
        """An A column outside [0, n) makes the C kernel decline, so the
        numpy path raises, on either tier; the pattern is a good one."""
        from repro import kernels
        a = random_bsr(6, 2, 0.4, 9)
        if layout == "csr":
            a = a.to_csr()
        ilu = ilu_csr if layout == "csr" else ilu_bsr
        good = ilu(a, 1, engine=engine)
        pat = good.pattern
        n = pat.n
        a.indices = a.indices.copy()
        a.indices[a.indptr[3]] = -1 if bad == -1 else n
        if engine == "compiled":
            assert kernels.ilu_numeric(pat, a.indptr, a.indices, a.data,
                                       "compiled") is None
        with pytest.raises(IndexError):
            ilu(a, into=good)


class TestNoScheduleOnCompiledPath:
    def test_compiled_solve_builds_no_schedule(self, monkeypatch):
        """A compiled NKS solve — symbolic, refreshes, applies — never
        compiles an elimination schedule or a level schedule."""
        if not has_backend():
            pytest.skip("no compiled backend (cffi + cc)")
        import repro.sparse.ilu as ilu_mod
        import repro.sparse.trisolve as tri_mod
        from repro import wing_problem
        from repro.core.config import (PreconditionerConfig,
                                       SolverConfig)
        from repro.core.driver import NKSSolver

        def forbidden(*args, **kwargs):
            raise AssertionError("schedule built on the compiled path")

        monkeypatch.setattr(ilu_mod, "compile_elimination_schedule",
                            forbidden)
        monkeypatch.setattr(ilu_mod, "level_schedule", forbidden)
        monkeypatch.setattr(tri_mod, "level_schedule", forbidden)
        prob = wing_problem(7, 5, 4, compressible=True, second_order=False)
        cfg = SolverConfig(engine="compiled", max_steps=4, jacobian_lag=1,
                           precond=PreconditionerConfig(nparts=2,
                                                        fill_level=2))
        report = NKSSolver(prob.disc, cfg).solve(prob.initial.flat())
        assert len(report.steps) == 4
        assert all(s.linear_iterations > 0 for s in report.steps)
