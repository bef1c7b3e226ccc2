"""SpMV kernel variants against the row-loop oracle."""

import numpy as np
import pytest

from repro.sparse import CSRMatrix, spmv_csr, spmv_csr_ref


@pytest.fixture(scope="module")
def matrix(rng):
    a = rng.random((40, 40))
    a[a < 0.8] = 0.0
    a += np.eye(40) * 3
    return CSRMatrix.from_dense(a)


class TestKernels:
    def test_loop_matches_numpy(self, matrix, rng):
        x = rng.random(40)
        assert np.allclose(spmv_csr_ref(matrix, x), matrix.matvec(x))

    def test_ref_oracle_matches_vectorised(self, matrix, rng):
        """The R001 contract pair: spmv_csr against its *_ref oracle."""
        x = rng.random(40)
        np.testing.assert_array_equal(spmv_csr(matrix, x),
                                      spmv_csr_ref(matrix, x))

    def test_row_subset_matches_full_product(self, matrix, rng):
        x = rng.random(40)
        rows = np.array([3, 7, 7, 0, 39], dtype=np.int64)
        np.testing.assert_allclose(spmv_csr(matrix, x, rows=rows),
                                   spmv_csr_ref(matrix, x)[rows])

    def test_bsr_kernel(self, rng):
        from tests.test_sparse_bsr import random_bsr
        m = random_bsr(6, 3, 0.5, 1)
        x = rng.random(18)
        assert np.allclose(m.matvec(x), m.to_csr() @ x)
