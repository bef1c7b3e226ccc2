"""Sparse triangular solves with level scheduling.

The sparse triangular solve is the memory-bandwidth-bound phase the
paper's Table 2 targets.  A row of L (or U) can be solved as soon as
all rows it references are done; grouping rows into dependency
*levels* lets each level be processed as one vectorised batch — the
standard way to expose parallelism in sparse triangular solves, and
the way we keep the Python implementation fast.  The compiled tier
needs no levels: it walks rows in natural order (0..n-1 for L, n-1..0
for U), which is a topological order of any triangular pattern, so the
solvers below take ``levels`` either as the list or as a zero-argument
callable that builds it, called only when the numpy batches run.
"""

from __future__ import annotations

# lint: kernel (bandwidth-bound triangular solves; Table 2)

import hashlib

import numpy as np

from repro import kernels as _kernels
from repro.sparse.segsum import concat_ranges, segment_sum

__all__ = ["level_schedule", "level_schedule_ref", "lower_solve_csr",
           "upper_solve_csr", "lower_solve_blocks", "upper_solve_blocks"]


def level_schedule_ref(indptr: np.ndarray, indices: np.ndarray,
                       reverse: bool = False) -> list[np.ndarray]:
    """Reference per-row dependency scan (the semantics oracle).

    For a lower-triangular pattern (strictly lower entries only),
    ``level[i] = 1 + max(level[j] for j in row i)``; rows of equal
    level are mutually independent.  With ``reverse=True`` the pattern
    is treated as (strictly) upper triangular and rows are processed
    from the bottom up.

    Returns a list of int64 arrays, one per level, in solve order.
    """
    n = indptr.size - 1
    level = np.zeros(n, dtype=np.int64)
    rows = range(n - 1, -1, -1) if reverse else range(n)
    for i in rows:
        cols = indices[indptr[i] : indptr[i + 1]]
        if cols.size:
            level[i] = level[cols].max() + 1
    order = np.argsort(level, kind="stable")
    sorted_levels = level[order]
    boundaries = np.flatnonzero(np.diff(sorted_levels)) + 1
    return [g.astype(np.int64) for g in np.split(order, boundaries)]


# Schedules keyed by a digest of the pattern; ILU reuses the same four
# triangular patterns on every Jacobian refresh, so a handful of slots
# suffices.  Entries are immutable-by-convention (callers only read).
_LEVEL_MEMO: dict[tuple, list[np.ndarray]] = {}
_LEVEL_MEMO_MAX = 16


def level_schedule(indptr: np.ndarray, indices: np.ndarray,
                   reverse: bool = False) -> list[np.ndarray]:
    """Dependency levels of a triangular pattern, vectorised + memoised.

    Same contract as :func:`level_schedule_ref` (the per-row oracle),
    computed by breadth-first Kahn wavefronts: all zero-indegree rows
    form level 0; each sweep decrements the indegree of every successor
    of the current frontier in one segmented pass, and rows whose last
    dependency just resolved form the next level.  The wavefront order
    is dependency-driven, so the same code serves lower and upper
    (``reverse=True``) patterns.  Results are memoised on a digest of
    the pattern arrays — ILU refactorisations recompute values, never
    structure, so repeated calls are dictionary lookups.
    """
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    h = hashlib.sha1(indptr.tobytes())
    h.update(indices.tobytes())
    key = (bool(reverse), h.hexdigest())
    cached = _LEVEL_MEMO.get(key)
    if cached is not None:
        return cached

    n = indptr.size - 1
    if n == 0:
        return [np.empty(0, dtype=np.int64)]
    deg = np.diff(indptr)
    # Reverse adjacency: successors of j = rows whose pattern holds j.
    row_of = np.repeat(np.arange(n, dtype=np.int64), deg)
    order = np.argsort(indices, kind="stable")
    succ = row_of[order]
    succ_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=succ_ptr[1:])

    deg = deg.copy()
    levels: list[np.ndarray] = []
    frontier = np.flatnonzero(deg == 0)
    # lint: loop-ok (Kahn wavefront: one vectorised sweep per level, O(levels))
    while frontier.size:
        levels.append(frontier)
        deg[frontier] = -1           # mark processed
        starts = succ_ptr[frontier]
        counts = succ_ptr[frontier + 1] - starts
        touched = succ[concat_ranges(starts, counts)]
        if touched.size == 0:
            break
        deg -= np.bincount(touched, minlength=n)
        cand = np.unique(touched)    # ascending, like the oracle's order
        frontier = cand[deg[cand] == 0]

    if _LEVEL_MEMO_MAX and len(_LEVEL_MEMO) >= _LEVEL_MEMO_MAX:
        _LEVEL_MEMO.pop(next(iter(_LEVEL_MEMO)))
    _LEVEL_MEMO[key] = levels
    return levels


def _row_dot(indptr, indices, data, x, rows, engine="numpy"):
    """sum_j data[i,j] * x[j] for each i in rows, vectorised.

    With ``engine="compiled"`` the per-row dots run in the compiled
    SpMV-subset kernel (bitwise identical: ``segment_sum`` over a
    sorted ``out_row`` accumulates each row's products sequentially in
    storage order, exactly like the compiled row loop).
    """
    if engine != "numpy":
        y = _kernels.spmv_csr(indptr, indices, data, x, engine, rows=rows)
        if y is not None:
            return y
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(rows.size, dtype=x.dtype)
    out_row = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
    flat = _ranges(starts, counts)
    prods = data[flat].astype(x.dtype, copy=False) * x[indices[flat]]
    return segment_sum(out_row, prods, rows.size).astype(x.dtype, copy=False)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each start/count pair.

    Alias of :func:`repro.sparse.segsum.concat_ranges`, kept for the
    existing trisolve/ILU call sites.
    """
    return concat_ranges(starts, counts)


def _levels(levels) -> list[np.ndarray]:
    """A level list, built now if the caller passed its builder."""
    return levels() if callable(levels) else levels


def lower_solve_csr(indptr, indices, data, b, levels,
                    engine="numpy") -> np.ndarray:
    """Solve L x = b with L unit lower triangular (strict part stored).

    ``engine="compiled"`` runs the compiled row loop in natural order
    (bitwise identical to the level-batched path); it degrades to the
    numpy batches when no backend is available.
    """
    x = np.array(b, dtype=np.float64, copy=True)
    if engine != "numpy" and _kernels.lower_solve_csr(
            indptr, indices, data, x, engine):
        return x
    # lint: loop-ok (one vectorised batch per dependency level, O(levels))
    for rows in _levels(levels):
        x[rows] -= _row_dot(indptr, indices, data, x, rows)
    return x


def upper_solve_csr(indptr, indices, data, inv_diag, b, levels,
                    engine="numpy") -> np.ndarray:
    """Solve U x = b with U upper triangular; ``indices``/``data`` hold
    the strictly-upper part and ``inv_diag`` the reciprocal diagonal."""
    x = np.array(b, dtype=np.float64, copy=True)
    if engine != "numpy" and _kernels.upper_solve_csr(
            indptr, indices, data, inv_diag, x, engine):
        return x
    # lint: loop-ok (one vectorised batch per dependency level, O(levels))
    for rows in _levels(levels):
        x[rows] = (x[rows] - _row_dot(indptr, indices, data, x, rows)) \
            * inv_diag[rows].astype(np.float64, copy=False)
    return x


def _row_dot_blocks(indptr, indices, data, x, rows, bs):
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros((rows.size, bs), dtype=x.dtype)
    out_row = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
    flat = _ranges(starts, counts)
    prods = np.einsum("kij,kj->ki", data[flat].astype(x.dtype, copy=False),
                      x[indices[flat]])
    return segment_sum(out_row, prods, rows.size).astype(x.dtype, copy=False)


def lower_solve_blocks(indptr, indices, data, b, levels, bs,
                       engine="numpy") -> np.ndarray:
    """Block variant of :func:`lower_solve_csr`; b has shape (nbrows*bs,).

    The compiled path is ULP-bounded (not bitwise) against the numpy
    batches: ``np.einsum`` sums block columns in SIMD pairwise order,
    the compiled loop sequentially.
    """
    x = np.array(b, dtype=np.float64, copy=True)
    if engine != "numpy" and _kernels.lower_solve_bsr(
            indptr, indices, data, x, bs, engine):
        return x
    x = x.reshape(-1, bs)
    # lint: loop-ok (one vectorised batch per dependency level, O(levels))
    for rows in _levels(levels):
        x[rows] -= _row_dot_blocks(indptr, indices, data, x, rows, bs)
    return x.ravel()


def upper_solve_blocks(indptr, indices, data, inv_diag, b, levels, bs,
                       engine="numpy") -> np.ndarray:
    """Block variant of :func:`upper_solve_csr`; ``inv_diag`` holds the
    (nbrows, bs, bs) inverses of the diagonal blocks."""
    x = np.array(b, dtype=np.float64, copy=True)
    if engine != "numpy" and _kernels.upper_solve_bsr(
            indptr, indices, data, inv_diag, x, bs, engine):
        return x
    x = x.reshape(-1, bs)
    # lint: loop-ok (one vectorised batch per dependency level, O(levels))
    for rows in _levels(levels):
        rhs = x[rows] - _row_dot_blocks(indptr, indices, data, x, rows, bs)
        x[rows] = np.einsum(
            "kij,kj->ki", inv_diag[rows].astype(np.float64, copy=False), rhs)
    return x.ravel()
