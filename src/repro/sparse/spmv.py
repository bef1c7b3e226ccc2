"""Sparse matrix-vector product kernels and their operation counts.

The SpMV is the paper's model kernel (Sec. 2.1.1): its performance is
set by memory traffic, not flops.  Besides the production numpy
kernels, this module provides exact per-kernel counts of flops, loads
of matrix/index/vector data, and stores, which feed the memory-centric
time model in :mod:`repro.perfmodel`.
"""

from __future__ import annotations

# lint: kernel (SpMV is the paper's model kernel; Sec. 2.1.1)

from dataclasses import dataclass

import numpy as np

from repro.sparse.bsr import BSRMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.segsum import concat_ranges, segment_sum

__all__ = ["spmv_csr_numpy", "spmv_csr", "spmv_csr_ref", "spmv_csr_loop",
           "spmv_bsr_numpy", "SpMVCost", "spmv_cost"]


def spmv_csr_numpy(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Vectorised CSR SpMV (gather + segmented sum)."""
    return a.matvec(x)


def spmv_csr(a: CSRMatrix, x: np.ndarray,
             rows: np.ndarray | None = None) -> np.ndarray:
    """Vectorised CSR SpMV over all rows or a row subset.

    The full product is one gather + segmented sum; a ``rows`` subset
    gathers its entry slices with :func:`concat_ranges` so arbitrary
    row batches (subdomain rows, triangular-solve levels) run as one
    flat batch instead of a Python loop.
    """
    x = np.asarray(x)
    if rows is None:
        prods = a.data * x[a.indices]
        y = segment_sum(a.row_of, prods, a.nrows)
        return y.astype(np.result_type(a.data, x), copy=False)
    rows = np.asarray(rows, dtype=np.int64)
    starts = a.indptr[rows]
    counts = a.indptr[rows + 1] - starts
    flat = concat_ranges(starts, counts)
    prods = a.data[flat] * x[a.indices[flat]]
    seg = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
    y = segment_sum(seg, prods, rows.size)
    return y.astype(np.result_type(a.data, x), copy=False)


def spmv_csr_ref(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Reference row-loop CSR SpMV (the semantics oracle).

    Mirrors the scalar kernel a C implementation would run; used as the
    semantics oracle for the vectorised kernels and as the reference
    whose *memory reference stream* the cache simulator traces.
    """
    y = np.zeros(a.nrows, dtype=np.result_type(a.data, x))
    indptr, indices, data = a.indptr, a.indices, a.data
    # Accumulate in the result dtype (a bare 0.0 would silently promote
    # the whole chain to float64, desynchronising this oracle from the
    # vectorised kernels under fp32).
    zero = y.dtype.type(0)
    for i in range(a.nrows):
        s, e = indptr[i], indptr[i + 1]
        acc = zero
        for t in range(s, e):
            acc += data[t] * x[indices[t]]
        y[i] = acc
    return y


# Historical name for the reference oracle.
spmv_csr_loop = spmv_csr_ref


def spmv_bsr_numpy(a: BSRMatrix, x: np.ndarray) -> np.ndarray:
    """Vectorised BSR SpMV (batched block gemv + segmented sum)."""
    return a.matvec(x)


@dataclass
class SpMVCost:
    """Exact operation counts of one SpMV under a given storage format.

    All counts are per single product; bytes assume the stated word
    sizes.  ``index_loads`` is the count the paper's structural-blocking
    argument is about: BSR loads one column index per *block*, CSR one
    per scalar entry.
    """

    flops: int
    matrix_words: int      # matrix coefficient loads (each once)
    index_words: int       # column-index + row-pointer integer loads
    vector_loads: int      # x-gather loads issued (before caching)
    vector_stores: int     # y stores
    value_bytes: int = 8   # sizeof vector scalar
    index_bytes: int = 4   # sizeof index integer

    @property
    def min_traffic_bytes(self) -> int:
        """Compulsory memory traffic: every matrix word and index once,
        x and y once each (perfect cache for the vector)."""
        return (self.matrix_words * self.value_bytes
                + self.index_words * self.index_bytes
                + (self.vector_stores * 2) * self.value_bytes)

    @property
    def worst_traffic_bytes(self) -> int:
        """No-reuse traffic: every x gather misses."""
        return (self.matrix_words * self.value_bytes
                + self.index_words * self.index_bytes
                + (self.vector_loads + self.vector_stores) * self.value_bytes)

    def intensity(self, traffic_bytes: int | None = None) -> float:
        """Computational intensity, flops per byte."""
        t = self.min_traffic_bytes if traffic_bytes is None else traffic_bytes
        return self.flops / max(t, 1)


def spmv_cost(a: CSRMatrix | BSRMatrix, value_bytes: int = 8,
              index_bytes: int = 4) -> SpMVCost:
    """Operation counts of ``a @ x`` for CSR or BSR storage."""
    if isinstance(a, BSRMatrix):
        bs = a.bs
        nnz = a.nnzb * bs * bs
        return SpMVCost(
            flops=2 * nnz,
            matrix_words=nnz,
            # one block-column index per block + one row pointer per block row
            index_words=a.nnzb + a.nbrows + 1,
            vector_loads=a.nnzb * bs,
            vector_stores=a.nbrows * bs,
            value_bytes=value_bytes,
            index_bytes=index_bytes,
        )
    if isinstance(a, CSRMatrix):
        return SpMVCost(
            flops=2 * a.nnz,
            matrix_words=a.nnz,
            index_words=a.nnz + a.nrows + 1,
            vector_loads=a.nnz,
            vector_stores=a.nrows,
            value_bytes=value_bytes,
            index_bytes=index_bytes,
        )
    raise TypeError(type(a))
