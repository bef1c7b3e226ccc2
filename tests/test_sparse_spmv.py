"""The numpy SpMVs against dense products."""

import numpy as np
import pytest

from repro.sparse import CSRMatrix


@pytest.fixture(scope="module")
def matrix(rng):
    a = rng.random((40, 40))
    a[a < 0.8] = 0.0
    a += np.eye(40) * 3
    return CSRMatrix.from_dense(a)


class TestKernels:
    def test_loop_matches_numpy(self, matrix, rng):
        x = rng.random(40)
        assert np.allclose(matrix.to_dense() @ x, matrix.matvec(x))

    def test_bsr_kernel(self, rng):
        from tests.test_sparse_bsr import random_bsr
        m = random_bsr(6, 3, 0.5, 1)
        x = rng.random(18)
        assert np.allclose(m.matvec(x), m.to_csr() @ x)
