"""The numpy SpMVs against dense products."""

import numpy as np
import pytest

from repro.sparse.segsum import flat_segment_index, run_starts, segment_sum
from tests.helpers import csr_from_dense, csr_to_dense


@pytest.fixture(scope="module")
def matrix(rng):
    a = rng.random((40, 40))
    a[a < 0.8] = 0.0
    a += np.eye(40) * 3
    return csr_from_dense(a)


class TestKernels:
    def test_loop_matches_numpy(self, matrix, rng):
        x = rng.random(40)
        assert np.allclose(csr_to_dense(matrix) @ x, matrix.matvec(x))

    def test_bsr_kernel(self, rng):
        from tests.test_sparse_bsr import random_bsr
        m = random_bsr(6, 3, 0.5, 1)
        x = rng.random(18)
        assert np.allclose(m.matvec(x), m.to_csr() @ x)


class TestSegmentSum:
    def test_precomputed_flat_index_is_the_same_sum(self, rng):
        """A cached flat index (the edge loops' fast path) adds exactly
        what the default path adds."""
        index = rng.integers(0, 7, 50)
        w = rng.random((50, 3))
        flat = flat_segment_index(index, 3)
        expect = np.zeros((7, 3))
        np.add.at(expect, index, w)
        assert np.array_equal(segment_sum(index, w, 7, flat_index=flat),
                              segment_sum(index, w, 7))
        assert np.allclose(segment_sum(index, w, 7), expect)


class TestRunStarts:
    def test_sorted_keys_keep_np_unique(self, rng):
        """On sorted keys the run-start mask keeps exactly
        ``np.unique``'s values, down to no keys and one key."""
        keys = np.sort(rng.integers(0, 30, 200))
        assert np.array_equal(keys[run_starts(keys)], np.unique(keys))
        for keys in (np.empty(0, dtype=np.int64), np.array([7]),
                     np.array([4, 4, 4])):
            assert np.array_equal(keys[run_starts(keys)], np.unique(keys))
