"""Sparse matrix-vector product: the row-subset kernel and its oracle.

The SpMV is the paper's model kernel (Sec. 2.1.1): its performance is
set by memory traffic, not flops.  Whole-matrix products are
``CSRMatrix.matvec`` / ``BSRMatrix.matvec``; the traffic they are
priced by is :func:`repro.perfmodel.spmv_model.spmv_traffic_bytes`.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.segsum import concat_ranges, segment_sum

__all__ = ["spmv_csr", "spmv_csr_ref"]


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
