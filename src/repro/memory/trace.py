"""Exact address-trace generators for the kernels the paper profiles.

A trace is an int64 array of byte addresses in a synthetic virtual
address space where each program array gets its own page-aligned base.
Traces are generated fully vectorised, so multi-million-reference
streams build in milliseconds and the cache/TLB simulator is the only
per-reference cost.

Layout knobs mirror the paper's Table 1 axes:

* *interlacing* — unknowns of a vertex adjacent (stride 8 bytes) vs
  field-major (stride 8*N bytes);
* *blocking* — BSR traces load one index per block and walk the block
  contiguously, vs CSR's index-per-scalar;
* *edge/node ordering* — the trace follows whatever edge order and
  vertex numbering the mesh carries, so reordered meshes produce
  reordered traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.bsr import BSRMatrix
from repro.sparse.csr import CSRMatrix

__all__ = ["TraceLayout", "spmv_csr_trace", "spmv_bsr_trace",
           "flux_loop_trace"]

_PAGE = 1 << 20  # array bases are 1 MiB aligned so arrays never overlap


@dataclass(frozen=True)
class TraceLayout:
    value_bytes: int = 8
    index_bytes: int = 4


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


def spmv_csr_trace(a: CSRMatrix, layout: TraceLayout | None = None) -> np.ndarray:
    """Reference stream of ``y = A x`` for scalar CSR.

    Per row: the row pointer; per nonzero: column index, matrix value,
    and the x gather; then the y store.  This is the loop whose
    conflict misses the paper's Eqs. 1-2 bound: the x-gather addresses
    span the matrix bandwidth.
    """
    lay = layout or TraceLayout()
    n = a.nrows
    nnz = a.nnz
    b_indptr, b_indices, b_data, b_x, b_y = _bases(
        [(n + 1) * lay.index_bytes, nnz * lay.index_bytes,
         nnz * lay.value_bytes, a.ncols * lay.value_bytes,
         n * lay.value_bytes])
    t = np.arange(nnz, dtype=np.int64)
    # Per-nonzero triplet at positions 8t+1, 8t+2, 8t+3.
    nz_pos = (8 * t[:, None] + np.array([1, 2, 3])).ravel()
    nz_addr = np.stack([
        b_indices + lay.index_bytes * t,
        b_data + lay.value_bytes * t,
        b_x + lay.value_bytes * a.indices,
    ], axis=1).ravel()
    rows = np.arange(n, dtype=np.int64)
    ptr_pos = 8 * a.indptr[:-1]
    ptr_addr = b_indptr + lay.index_bytes * rows
    y_pos = 8 * a.indptr[1:] - 4
    y_addr = b_y + lay.value_bytes * rows
    return _merge_by_position([(nz_pos, nz_addr), (ptr_pos, ptr_addr),
                               (y_pos, y_addr)])


def spmv_bsr_trace(a: BSRMatrix, layout: TraceLayout | None = None) -> np.ndarray:
    """Reference stream of ``y = A x`` for block CSR (structural
    blocking): one column index per block, contiguous bs*bs block walk,
    contiguous bs-wide x gather."""
    lay = layout or TraceLayout()
    bs = a.bs
    nb = a.nnzb
    n = a.nbrows
    b_indptr, b_indices, b_data, b_x, b_y = _bases(
        [(n + 1) * lay.index_bytes, nb * lay.index_bytes,
         nb * bs * bs * lay.value_bytes, a.nbcols * bs * lay.value_bytes,
         n * bs * lay.value_bytes])
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
        (b_indices + lay.index_bytes * t)[:, None],
        b_data + lay.value_bytes * (bs * bs * t[:, None] + np.arange(bs * bs)),
        b_x + lay.value_bytes * (bs * a.indices[:, None] + np.arange(bs)),
    ], axis=1).ravel()
    rows = np.arange(n, dtype=np.int64)
    ptr_pos = stride * a.indptr[:-1]
    ptr_addr = b_indptr + lay.index_bytes * rows
    y_pos = (stride * a.indptr[1:] - bs - 1)[:, None] + np.arange(bs)
    y_addr = (b_y + lay.value_bytes * (bs * rows[:, None] + np.arange(bs)))
    return _merge_by_position([(pos, addr), (ptr_pos, ptr_addr),
                               (y_pos.ravel(), y_addr.ravel())])


def flux_loop_trace(edges: np.ndarray, num_vertices: int, ncomp: int,
                    *, interlaced: bool = True, rw_residual: bool = True,
                    second_order: bool = True,
                    layout: TraceLayout | None = None) -> np.ndarray:
    """Reference stream of the edge-based flux loop.

    Per edge (in the order given, which is the whole point — reordered
    edges give a different trace): the two endpoint indices, the two
    state blocks, the dual-face normal, and the residual update at both
    endpoints (read+write when ``rw_residual``).

    ``interlaced=False`` uses the field-major state layout: component f
    of vertex v lives at ``f * n + v`` value-strides, so one stencil
    touches ``ncomp`` pages instead of one.

    ``second_order`` adds the MUSCL reconstruction's data: the two
    endpoints' gradient blocks (ncomp x 3 values each, stored in the
    same interlaced-or-not layout) and coordinates — which is what the
    production FUN3D edge kernel actually reads.
    """
    lay = layout or TraceLayout()
    edges = np.asarray(edges, dtype=np.int64)
    ne = edges.shape[0]
    n = num_vertices
    b_edges, b_q, b_s, b_r, b_g, b_x = _bases(
        [2 * ne * lay.index_bytes, n * ncomp * lay.value_bytes,
         3 * ne * lay.value_bytes, n * ncomp * lay.value_bytes,
         n * ncomp * 3 * lay.value_bytes, n * 3 * lay.value_bytes])

    comp = np.arange(ncomp, dtype=np.int64)
    gcomp = np.arange(3 * ncomp, dtype=np.int64)
    xyz = np.arange(3, dtype=np.int64)
    if interlaced:
        def state_addrs(base: int, v: np.ndarray) -> np.ndarray:
            return base + lay.value_bytes * (v[:, None] * ncomp + comp)

        def grad_addrs(v: np.ndarray) -> np.ndarray:
            return b_g + lay.value_bytes * (v[:, None] * 3 * ncomp + gcomp)
    else:
        def state_addrs(base: int, v: np.ndarray) -> np.ndarray:
            return base + lay.value_bytes * (comp * n + v[:, None])

        def grad_addrs(v: np.ndarray) -> np.ndarray:
            return b_g + lay.value_bytes * (gcomp * n + v[:, None])

    a = edges[:, 0]
    b = edges[:, 1]
    pieces = [
        b_edges + lay.index_bytes * (2 * np.arange(ne, dtype=np.int64))[:, None]
        + lay.index_bytes * np.arange(2),           # endpoint indices
        state_addrs(b_q, a),                        # q[a]
        state_addrs(b_q, b),                        # q[b]
        b_s + lay.value_bytes * (3 * np.arange(ne, dtype=np.int64))[:, None]
        + lay.value_bytes * np.arange(3),           # normal
    ]
    if second_order:
        pieces += [
            b_x + lay.value_bytes * (a[:, None] * 3 + xyz),   # coords[a]
            b_x + lay.value_bytes * (b[:, None] * 3 + xyz),   # coords[b]
            grad_addrs(a),                                    # grad[a]
            grad_addrs(b),                                    # grad[b]
        ]
    res_a = state_addrs(b_r, a)
    res_b = state_addrs(b_r, b)
    if rw_residual:
        pieces += [res_a, res_a, res_b, res_b]      # read + write
    else:
        pieces += [res_a, res_b]
    return np.concatenate(pieces, axis=1).ravel()
