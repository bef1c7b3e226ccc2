"""Level-scheduled triangular solves."""

import numpy as np
import pytest

from repro.sparse.trisolve import (level_schedule, level_schedule_ref,
                                   lower_solve_blocks, lower_solve_csr,
                                   upper_solve_blocks_inplace,
                                   upper_solve_csr_inplace)


def random_lower(n, density, seed):
    rng = np.random.default_rng(seed)
    l = np.tril(rng.standard_normal((n, n)), -1)
    l[np.abs(l) < np.quantile(np.abs(l[np.tril_indices(n, -1)]),
                              1 - density)] = 0.0
    return l


def to_csr_parts(tri):
    n = tri.shape[0]
    rows, cols = np.nonzero(tri)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols.astype(np.int64), tri[rows, cols]


class TestLevelSchedule:
    def test_levels_partition_rows(self):
        l = random_lower(20, 0.3, 0)
        indptr, indices, _ = to_csr_parts(l)
        levels = level_schedule(indptr, indices)
        allrows = np.concatenate(levels)
        assert np.array_equal(np.sort(allrows), np.arange(20))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_wavefront_matches_ref_oracle(self, seed, reverse):
        """The oracle pair: level_schedule vs its *_ref oracle."""
        l = random_lower(30, 0.25, seed)
        tri = l.T if reverse else l
        indptr, indices, _ = to_csr_parts(tri)
        got = level_schedule(indptr, indices, reverse=reverse)
        want = level_schedule_ref(indptr, indices, reverse=reverse)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_dependencies_respected(self):
        l = random_lower(25, 0.3, 1)
        indptr, indices, _ = to_csr_parts(l)
        levels = level_schedule(indptr, indices)
        rank = np.empty(25, dtype=int)
        for k, rows in enumerate(levels):
            rank[rows] = k
        for i in range(25):
            deps = indices[indptr[i]:indptr[i + 1]]
            assert np.all(rank[deps] < rank[i])

    def test_diagonal_matrix_one_level(self):
        indptr = np.zeros(11, dtype=np.int64)
        levels = level_schedule(indptr, np.empty(0, dtype=np.int64))
        assert len(levels) == 1
        assert levels[0].size == 10

    def test_dense_lower_n_levels(self):
        l = np.tril(np.ones((6, 6)), -1)
        indptr, indices, _ = to_csr_parts(l)
        assert len(level_schedule(indptr, indices)) == 6

    def test_reverse_for_upper(self):
        u = np.triu(np.ones((5, 5)), 1)
        indptr, indices, _ = to_csr_parts(u)
        levels = level_schedule(indptr, indices, reverse=True)
        rank = np.empty(5, dtype=int)
        for k, rows in enumerate(levels):
            rank[rows] = k
        for i in range(5):
            deps = indices[indptr[i]:indptr[i + 1]]
            if deps.size:
                assert np.all(rank[deps] < rank[i])


class TestScalarSolves:
    def test_lower_unit_solve(self, rng):
        l = random_lower(30, 0.3, 2)
        indptr, indices, data = to_csr_parts(l)
        levels = level_schedule(indptr, indices)
        b = rng.random(30)
        x = lower_solve_csr(indptr, indices, data, b, levels)
        assert np.allclose((np.eye(30) + l) @ x, b)

    def test_upper_solve(self, rng):
        n = 30
        u_strict = random_lower(n, 0.3, 3).T
        diag = rng.random(n) + 1.0
        indptr, indices, data = to_csr_parts(u_strict)
        levels = level_schedule(indptr, indices, reverse=True)
        b = rng.random(n)
        x = upper_solve_csr_inplace(indptr, indices, data, 1.0 / diag,
                                    b.copy(), levels)
        assert np.allclose((np.diag(diag) + u_strict) @ x, b)


class TestBlockSolves:
    def test_lower_block_solve(self, rng):
        n, bs = 12, 3
        pattern = np.tril(rng.random((n, n)) < 0.3, -1)
        rows, cols = np.nonzero(pattern)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        data = rng.standard_normal((rows.size, bs, bs)) * 0.3
        levels = level_schedule(indptr, cols.astype(np.int64))
        b = rng.random(n * bs)
        x = lower_solve_blocks(indptr, cols.astype(np.int64), data, b,
                               levels, bs)
        # Build the dense block lower matrix with unit diagonal blocks.
        dense = np.eye(n * bs)
        for k, (i, j) in enumerate(zip(rows, cols)):
            dense[bs*i:bs*i+bs, bs*j:bs*j+bs] = data[k]
        assert np.allclose(dense @ x, b)

    def test_upper_block_solve(self, rng):
        n, bs = 10, 2
        pattern = np.triu(rng.random((n, n)) < 0.3, 1)
        rows, cols = np.nonzero(pattern)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        data = rng.standard_normal((rows.size, bs, bs)) * 0.3
        dblocks = rng.standard_normal((n, bs, bs)) + 4 * np.eye(bs)
        inv_diag = np.linalg.inv(dblocks)
        levels = level_schedule(indptr, cols.astype(np.int64), reverse=True)
        b = rng.random(n * bs)
        x = upper_solve_blocks_inplace(indptr, cols.astype(np.int64), data,
                                       inv_diag, b.copy(), levels, bs)
        dense = np.zeros((n * bs, n * bs))
        for i in range(n):
            dense[bs*i:bs*i+bs, bs*i:bs*i+bs] = dblocks[i]
        for k, (i, j) in enumerate(zip(rows, cols)):
            dense[bs*i:bs*i+bs, bs*j:bs*j+bs] = data[k]
        assert np.allclose(dense @ x, b)
