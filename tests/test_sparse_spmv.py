"""The numpy SpMVs against dense products."""

import numpy as np
import pytest

from repro.sparse import BSRMatrix, CSRMatrix
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

    @pytest.mark.parametrize("case", ["random", "empty", "all-duplicates"])
    def test_builders_keep_np_unique_arrays(self, case):
        """The COO and block-COO builders, ``graph_from_edges`` and
        ``coarsen_graph`` build, bit for bit, what their ``np.unique``
        forms built: random triplets with duplicates, none, and one
        entry repeated."""
        from repro.graph import graph_from_edges
        from repro.partition.coarsen import coarsen_graph, heavy_edge_matching

        def same(got, want):
            assert got.dtype == want.dtype and np.array_equal(got, want)

        rng = np.random.default_rng(5)
        n = 12
        m = {"random": 150, "empty": 0, "all-duplicates": 40}[case]
        if case == "all-duplicates":
            rows, cols = np.full(m, 3), np.full(m, 7)
        else:
            rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
        vals, blocks = rng.random(m), rng.random((m, 2, 2))
        order = np.argsort(rows * n + cols, kind="stable")
        uniq, start = np.unique((rows * n + cols)[order], return_index=True)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(uniq // n,
                                                            minlength=n))])
        a = CSRMatrix.from_coo(rows, cols, vals, (n, n))
        same(a.indptr, indptr)
        same(a.indices, uniq % n)
        same(a.data, np.add.reduceat(vals[order], start))
        b = BSRMatrix.from_block_coo(rows, cols, blocks, (n, n))
        same(b.indptr, indptr)
        same(b.indices, uniq % n)
        same(b.data, np.add.reduceat(blocks[order].reshape(m, 4), start,
                                     axis=0).reshape(-1, 2, 2))

        edges = np.stack([rows, cols], axis=1)[rows != cols]
        w = rng.integers(1, 5, edges.shape[0])
        key = edges.min(axis=1) * n + edges.max(axis=1)
        uniq, inverse = np.unique(key, return_inverse=True)
        g = graph_from_edges(n, edges, ewgt=w)
        merged = graph_from_edges(
            n, np.stack([uniq // n, uniq % n], axis=1),
            ewgt=np.bincount(inverse, weights=w,
                             minlength=uniq.size).astype(np.int64))
        for name in ("xadj", "adjncy", "vwgt", "ewgt"):
            same(getattr(g, name), getattr(merged, name))
        rep = np.minimum(np.arange(n), heavy_edge_matching(g))
        same(coarsen_graph(g).fine_to_coarse,
             np.unique(rep, return_inverse=True)[1])
