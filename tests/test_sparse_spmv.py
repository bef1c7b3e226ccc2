"""SpMV kernel variants and operation-count accounting."""

import numpy as np
import pytest

from repro.sparse import (CSRMatrix, spmv_bsr_numpy, spmv_cost,
                          spmv_csr, spmv_csr_loop, spmv_csr_numpy,
                          spmv_csr_ref)


@pytest.fixture(scope="module")
def matrix(rng):
    a = rng.random((40, 40))
    a[a < 0.8] = 0.0
    a += np.eye(40) * 3
    return CSRMatrix.from_dense(a)


class TestKernels:
    def test_loop_matches_numpy(self, matrix, rng):
        x = rng.random(40)
        assert np.allclose(spmv_csr_loop(matrix, x),
                           spmv_csr_numpy(matrix, x))

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
        assert np.allclose(spmv_bsr_numpy(m, x), m.to_csr() @ x)


class TestCost:
    def test_csr_counts(self, matrix):
        c = spmv_cost(matrix)
        assert c.flops == 2 * matrix.nnz
        assert c.matrix_words == matrix.nnz
        assert c.index_words == matrix.nnz + matrix.nrows + 1
        assert c.vector_loads == matrix.nnz
        assert c.vector_stores == matrix.nrows

    def test_bsr_fewer_index_words(self):
        from tests.test_sparse_bsr import random_bsr
        m = random_bsr(8, 4, 0.5, 2)
        cb = spmv_cost(m)
        cs = spmv_cost(m.to_csr())
        assert cb.flops == cs.flops
        assert cb.matrix_words == cs.matrix_words
        # Structural blocking: ~bs^2 fewer index loads (paper 2.1.2).
        assert cb.index_words < cs.index_words / 8

    def test_traffic_ordering(self, matrix):
        c = spmv_cost(matrix)
        assert c.min_traffic_bytes <= c.worst_traffic_bytes

    def test_intensity_low(self, matrix):
        """SpMV sits deep in the bandwidth-bound regime: < 0.25 flops
        per byte even with perfect reuse."""
        c = spmv_cost(matrix)
        assert c.intensity() < 0.25

    def test_fp32_values_halve_matrix_traffic(self, matrix):
        c64 = spmv_cost(matrix, value_bytes=8)
        c32 = spmv_cost(matrix, value_bytes=4)
        assert (c32.min_traffic_bytes - c32.index_words * 4) * 2 == \
            (c64.min_traffic_bytes - c64.index_words * 4)
