"""Block CSR (BAIJ) tests: equivalence with expanded point CSR."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import BSRMatrix
from tests.helpers import csr_to_dense


def random_bsr(nb, bs, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((nb, nb)) < density
    np.fill_diagonal(mask, True)
    br, bc = np.nonzero(mask)
    blocks = rng.standard_normal((br.size, bs, bs))
    diag = br == bc
    blocks[diag] += 5 * np.eye(bs)
    return BSRMatrix.from_block_coo(br, bc, blocks, (nb, nb))


class TestConstruction:
    def test_shape(self):
        m = random_bsr(5, 3, 0.4, 0)
        assert m.shape == (15, 15)
        assert m.bs == 3

    def test_duplicates_summed(self):
        blocks = np.ones((2, 2, 2))
        m = BSRMatrix.from_block_coo([0, 0], [1, 1], blocks, (2, 2))
        assert m.nnzb == 1
        assert np.allclose(m.data[0], 2.0)

    def test_bad_data_shape_rejected(self):
        with pytest.raises(ValueError):
            BSRMatrix(indptr=np.array([0, 1]), indices=np.array([0]),
                      data=np.ones((1, 2, 3)), nbcols=1)


class TestEquivalence:
    @pytest.mark.parametrize("bs", [1, 2, 4, 5])
    def test_matvec_matches_csr_expansion(self, bs, rng):
        m = random_bsr(6, bs, 0.4, bs)
        x = rng.random(6 * bs)
        assert np.allclose(m @ x, m.to_csr() @ x)

    def test_to_csr_matches_scipy_bsr(self, rng):
        import scipy.sparse as sp
        m = random_bsr(5, 3, 0.5, 7)
        ref = sp.bsr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
        assert np.allclose(csr_to_dense(m.to_csr()), ref.toarray())

    def test_add_block_diagonal(self, rng):
        m = random_bsr(4, 3, 0.5, 4)
        shift = rng.standard_normal((4, 3, 3))
        m2 = m.add_block_diagonal(shift)
        diff = csr_to_dense(m2.to_csr()) - csr_to_dense(m.to_csr())
        for i in range(4):
            assert np.allclose(diff[3*i:3*i+3, 3*i:3*i+3], shift[i])

    def test_submatrix(self, rng):
        m = random_bsr(6, 2, 0.5, 5)
        rows = np.array([0, 2, 5])
        sub = m.submatrix(rows)
        dense = csr_to_dense(m.to_csr())
        pt = np.concatenate([[2 * r, 2 * r + 1] for r in rows])
        assert np.allclose(csr_to_dense(sub.to_csr()), dense[np.ix_(pt, pt)])

    def test_permuted(self, rng):
        m = random_bsr(5, 2, 0.5, 6)
        perm = rng.permutation(5)
        p = m.permuted(perm)
        dense = csr_to_dense(m.to_csr())
        pt = np.concatenate([[2 * r, 2 * r + 1] for r in perm])
        assert np.allclose(csr_to_dense(p.to_csr()), dense[np.ix_(pt, pt)])

    def test_astype(self):
        m = random_bsr(4, 2, 0.5, 8)
        assert m.astype(np.float32).data.dtype == np.float32


@settings(deadline=None, max_examples=15)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 50))
def test_property_bsr_csr_agree(nb, bs, seed):
    m = random_bsr(nb, bs, 0.5, seed)
    x = np.random.default_rng(seed).random(nb * bs)
    assert np.allclose(m @ x, m.to_csr() @ x, atol=1e-10)
