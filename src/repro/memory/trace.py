"""Exact address-trace generators for the kernels the paper profiles.

A trace is an int64 array of byte addresses in a synthetic virtual
address space where each program array gets its own page-aligned base.
Traces are generated fully vectorised, so multi-million-reference
streams build in milliseconds and the cache/TLB simulator is the only
per-reference cost.

Values are 8 bytes and indices 4.  Layout knobs mirror the paper's
Table 1 axes:

* *interlacing* — unknowns of a vertex adjacent (stride 8 bytes) vs
  field-major (stride 8*N bytes);
* *blocking* — BSR traces load one index per block and walk the block
  contiguously, vs CSR's index-per-scalar;
* *edge/node ordering* — the trace follows whatever edge order and
  vertex numbering the mesh carries, so reordered meshes produce
  reordered traces.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.bsr import BSRMatrix
from repro.sparse.csr import CSRMatrix

__all__ = ["spmv_csr_trace", "spmv_bsr_trace", "flux_loop_trace"]

_PAGE = 1 << 20  # array bases are 1 MiB aligned so arrays never overlap
_VALUE_BYTES = 8
_INDEX_BYTES = 4


def _bases(sizes: list[int]) -> list[int]:
    """Page-aligned base addresses for arrays of the given byte sizes."""
    out = []
    cursor = _PAGE
    for s in sizes:
        out.append(cursor)
        cursor += ((s + _PAGE - 1) // _PAGE + 1) * _PAGE
    return out


def _merge_by_position(chunks: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Merge (position, address) chunks into one position-ordered trace."""
    pos = np.concatenate([p for p, _ in chunks])
    addr = np.concatenate([a for _, a in chunks])
    order = np.argsort(pos, kind="stable")
    return addr[order]


def spmv_csr_trace(a: CSRMatrix) -> np.ndarray:
    """Reference stream of ``y = A x`` for scalar CSR.

    Per row: the row pointer; per nonzero: column index, matrix value,
    and the x gather; then the y store — the row loop of a compiled
    AIJ SpMV, which is how Table 1 prices the scalar baseline (no
    solve here runs one: every solver Jacobian is BSR).  This is the
    loop whose conflict misses the paper's Eqs. 1-2 bound: the x-gather
    addresses span the matrix bandwidth.
    """
    n = a.nrows
    nnz = a.nnz
    b_indptr, b_indices, b_data, b_x, b_y = _bases(
        [(n + 1) * _INDEX_BYTES, nnz * _INDEX_BYTES,
         nnz * _VALUE_BYTES, a.ncols * _VALUE_BYTES,
         n * _VALUE_BYTES])
    t = np.arange(nnz, dtype=np.int64)
    # Per-nonzero triplet at positions 8t+1, 8t+2, 8t+3.
    nz_pos = (8 * t[:, None] + np.array([1, 2, 3])).ravel()
    nz_addr = np.stack([
        b_indices + _INDEX_BYTES * t,
        b_data + _VALUE_BYTES * t,
        b_x + _VALUE_BYTES * a.indices,
    ], axis=1).ravel()
    rows = np.arange(n, dtype=np.int64)
    ptr_pos = 8 * a.indptr[:-1]
    ptr_addr = b_indptr + _INDEX_BYTES * rows
    y_pos = 8 * a.indptr[1:] - 4
    y_addr = b_y + _VALUE_BYTES * rows
    return _merge_by_position([(nz_pos, nz_addr), (ptr_pos, ptr_addr),
                               (y_pos, y_addr)])


def spmv_bsr_trace(a: BSRMatrix) -> np.ndarray:
    """Reference stream of ``y = A x`` for block CSR (structural
    blocking): one column index per block, contiguous bs*bs block walk,
    contiguous bs-wide x gather."""
    bs = a.bs
    nb = a.nnzb
    n = a.nbrows
    b_indptr, b_indices, b_data, b_x, b_y = _bases(
        [(n + 1) * _INDEX_BYTES, nb * _INDEX_BYTES,
         nb * bs * bs * _VALUE_BYTES, a.nbcols * bs * _VALUE_BYTES,
         n * bs * _VALUE_BYTES])
    t = np.arange(nb, dtype=np.int64)
    width = 1 + bs * bs + bs          # accesses per block
    stride = 4 * width                # position budget per block
    base_pos = stride * t[:, None]
    # index read, then the block values, then the x block.
    pos = np.concatenate([
        base_pos + 1,
        base_pos + 2 + np.arange(bs * bs),
        base_pos + 2 + bs * bs + np.arange(bs),
    ], axis=1).ravel()
    addr = np.concatenate([
        (b_indices + _INDEX_BYTES * t)[:, None],
        b_data + _VALUE_BYTES * (bs * bs * t[:, None] + np.arange(bs * bs)),
        b_x + _VALUE_BYTES * (bs * a.indices[:, None] + np.arange(bs)),
    ], axis=1).ravel()
    rows = np.arange(n, dtype=np.int64)
    ptr_pos = stride * a.indptr[:-1]
    ptr_addr = b_indptr + _INDEX_BYTES * rows
    y_pos = (stride * a.indptr[1:] - bs - 1)[:, None] + np.arange(bs)
    y_addr = (b_y + _VALUE_BYTES * (bs * rows[:, None] + np.arange(bs)))
    return _merge_by_position([(pos, addr), (ptr_pos, ptr_addr),
                               (y_pos.ravel(), y_addr.ravel())])


def flux_loop_trace(edges: np.ndarray, num_vertices: int, ncomp: int,
                    *, interlaced: bool = True) -> np.ndarray:
    """Reference stream of the edge-based flux loop.

    Per edge (in the order given, which is the whole point — reordered
    edges give a different trace): the two endpoint indices, the two
    state blocks, the dual-face normal, the MUSCL reconstruction's data
    (both endpoints' coordinates and ncomp x 3 gradient blocks, stored
    in the same interlaced-or-not layout as the state: what the
    production FUN3D edge kernel actually reads), and the residual
    read and write at both endpoints.

    ``interlaced=False`` uses the field-major state layout: component f
    of vertex v lives at ``f * n + v`` value-strides, so one stencil
    touches ``ncomp`` pages instead of one.
    """
    edges = np.asarray(edges, dtype=np.int64)
    ne = edges.shape[0]
    n = num_vertices
    b_edges, b_q, b_s, b_r, b_g, b_x = _bases(
        [2 * ne * _INDEX_BYTES, n * ncomp * _VALUE_BYTES,
         3 * ne * _VALUE_BYTES, n * ncomp * _VALUE_BYTES,
         n * ncomp * 3 * _VALUE_BYTES, n * 3 * _VALUE_BYTES])

    comp = np.arange(ncomp, dtype=np.int64)
    gcomp = np.arange(3 * ncomp, dtype=np.int64)
    xyz = np.arange(3, dtype=np.int64)
    if interlaced:
        def state_addrs(base: int, v: np.ndarray) -> np.ndarray:
            return base + _VALUE_BYTES * (v[:, None] * ncomp + comp)

        def grad_addrs(v: np.ndarray) -> np.ndarray:
            return b_g + _VALUE_BYTES * (v[:, None] * 3 * ncomp + gcomp)
    else:
        def state_addrs(base: int, v: np.ndarray) -> np.ndarray:
            return base + _VALUE_BYTES * (comp * n + v[:, None])

        def grad_addrs(v: np.ndarray) -> np.ndarray:
            return b_g + _VALUE_BYTES * (gcomp * n + v[:, None])

    a = edges[:, 0]
    b = edges[:, 1]
    pieces = [
        b_edges + _INDEX_BYTES * (2 * np.arange(ne, dtype=np.int64))[:, None]
        + _INDEX_BYTES * np.arange(2),           # endpoint indices
        state_addrs(b_q, a),                        # q[a]
        state_addrs(b_q, b),                        # q[b]
        b_s + _VALUE_BYTES * (3 * np.arange(ne, dtype=np.int64))[:, None]
        + _VALUE_BYTES * np.arange(3),           # normal
        b_x + _VALUE_BYTES * (a[:, None] * 3 + xyz),   # coords[a]
        b_x + _VALUE_BYTES * (b[:, None] * 3 + xyz),   # coords[b]
        grad_addrs(a),                                    # grad[a]
        grad_addrs(b),                                    # grad[b]
    ]
    res_a = state_addrs(b_r, a)
    res_b = state_addrs(b_r, b)
    pieces += [res_a, res_a, res_b, res_b]          # read + write
    return np.concatenate(pieces, axis=1).ravel()
