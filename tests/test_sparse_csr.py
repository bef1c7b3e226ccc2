"""CSR matrix tests against dense/scipy oracles and property checks."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sparse import CSRMatrix
from tests.helpers import csr_from_dense, csr_to_dense


def random_sparse(n, density, seed, diag_boost=5.0):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    a[a > density] = 0.0
    a += np.eye(n) * diag_boost
    return a


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        a = random_sparse(20, 0.3, 0)
        m = csr_from_dense(a)
        assert np.allclose(csr_to_dense(m), a)
        assert m.nnz == np.count_nonzero(a)

    def test_from_coo_sums_duplicates(self):
        m = CSRMatrix.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0], (2, 2))
        assert m.nnz == 2
        assert csr_to_dense(m)[0, 1] == 5.0

    def test_rows_sorted(self, rng):
        a = random_sparse(15, 0.4, 1)
        m = csr_from_dense(a)
        for i in range(m.nrows):
            cols, _ = m.row(i)
            assert np.all(np.diff(cols) > 0)

    def test_eye(self):
        m = CSRMatrix.eye(4, 2.5)
        assert np.allclose(csr_to_dense(m), 2.5 * np.eye(4))

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix(indptr=np.array([0, 2]), indices=np.array([0]),
                      data=np.array([1.0]), ncols=2)


class TestOps:
    def test_matvec_matches_dense(self, rng):
        a = random_sparse(30, 0.2, 2)
        x = rng.random(30)
        assert np.allclose(csr_from_dense(a) @ x, a @ x)

    def test_matvec_empty_rows(self):
        a = np.zeros((4, 4))
        a[1, 2] = 3.0
        m = csr_from_dense(a)
        assert np.allclose(m @ np.ones(4), a @ np.ones(4))

    def test_matvec_matches_scipy(self, rng):
        a = random_sparse(40, 0.15, 3)
        x = rng.random(40)
        ours = csr_from_dense(a) @ x
        theirs = sp.csr_matrix(a) @ x
        assert np.allclose(ours, theirs)

    def test_transpose(self, rng):
        a = random_sparse(12, 0.4, 4)
        assert np.allclose(csr_to_dense(csr_from_dense(a).transpose()),
                           a.T)

    def test_permuted_symmetric(self, rng):
        a = random_sparse(14, 0.3, 8)
        perm = rng.permutation(14)
        m = csr_from_dense(a).permuted(perm)
        assert np.allclose(csr_to_dense(m), a[np.ix_(perm, perm)])

    def test_submatrix(self, rng):
        a = random_sparse(14, 0.3, 9)
        rows = np.array([1, 4, 7, 13])
        m = csr_from_dense(a).submatrix(rows)
        assert np.allclose(csr_to_dense(m), a[np.ix_(rows, rows)])

    def test_astype(self, rng):
        a = random_sparse(8, 0.4, 10)
        m32 = csr_from_dense(a).astype(np.float32)
        assert m32.data.dtype == np.float32
        assert np.allclose(csr_to_dense(m32), a, atol=1e-6)

    def test_copy_independent(self, rng):
        m = csr_from_dense(random_sparse(6, 0.5, 11))
        c = m.copy()
        c.data[:] = 0
        assert not np.allclose(m.data, 0)


@settings(deadline=None, max_examples=25)
@given(arrays(np.float64, (8, 8), elements=st.floats(-10, 10)),
       arrays(np.float64, 8, elements=st.floats(-10, 10)))
def test_property_matvec_linear(a, x):
    """Property: SpMV agrees with dense product and is linear."""
    m = csr_from_dense(a)
    assert np.allclose(m @ x, a @ x, atol=1e-9)
    assert np.allclose(m @ (2.0 * x), 2.0 * (m @ x), atol=1e-9)


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 10), st.integers(0, 100))
def test_property_permute_preserves_spectrum_trace(n, seed):
    rng = np.random.default_rng(seed)
    a = random_sparse(n, 0.5, seed)
    perm = rng.permutation(n)
    m = csr_from_dense(a).permuted(perm)
    assert np.isclose(np.trace(csr_to_dense(m)), np.trace(a))
