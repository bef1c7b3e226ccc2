"""Compiled kernel tier: an optional C backend behind the oracles.

The paper's hot paths — block ILU set-up and triangular solves,
flux-residual scatter, block SpMV, first-order Jacobian assembly — are
kernels whose numpy formulations pay for gather/scatter index arrays
and multi-pass temporaries; the k-way partitioner that every solver
runs in its constructor pays for Python loops over vertices (its
heavy-edge matching, contraction, FM refinement and contiguity repair
are twinned here; its region growing stays numpy).  This package
provides compiled twins (a cffi-compiled C library) selected by the
``engine="compiled"`` knob — the default of
:class:`repro.core.SolverConfig` — that the solver threads through the
partitioner, the discretisation, preconditioners, and SPMD executors.
Only kernels a solve runs have a twin: the scalar (AIJ) matrices,
Table 1's traced baseline, keep their numpy kernels alone.
Each function below is the whole Python side of its C kernel: it
checks the operands, allocates the outputs, makes the C call through
:class:`~repro.kernels.cbackend.CBackend` (the loaded library) and
reads its status; :data:`__oracles__` names each one's numpy oracle.

Contract:

* the numpy implementation is always retained and is the oracle —
  the scatter kernels, the Green-Gauss gradients, the Jacobian
  assembly and the boundary closure match it **bitwise**, the
  partitioner's phases label for label, block
  kernels and the fused flux
  kernels within a few **ULP** (``np.einsum`` uses SIMD pairwise
  summation the compiled loops do not replicate portably);
* every kernel checks each index it dereferences — edge endpoints,
  columns and row pointers, segment ids, block slots — against the
  extent it addresses and *declines* on an offending one, so the
  caller's numpy path raises what it raises without a compiled tier;
* no hard dependency: a missing compiler or cffi degrades every
  dispatch below to the numpy path (the functions return ``None`` /
  ``False`` and the caller runs its oracle);
* ``REPRO_KERNELS_DISABLE=1`` forces the numpy path globally.

Every dispatcher takes the *engine knob* (``"numpy"``/``"compiled"``)
and resolves it per call through :mod:`repro.kernels.capability`, so
tests can monkeypatch the capability layer to fake a bare machine.
:func:`trisolver` is the exception: an ILU factor checks its operands
once and keeps the result, so it takes the backend its caller resolved
(an Additive Schwarz apply resolves it once for all its subdomains).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import capability
from repro.kernels.capability import resolve_engine

__all__ = ["backend_for", "resolve_engine",
           "spmv_bsr", "gather_spmv_bsr", "seq_matvec_bsr", "trisolver",
           "rusanov_jacobian_scatter", "boundary_closure",
           "rusanov_scatter", "green_gauss",
           "muscl_rusanov_scatter", "ilu_symbolic", "ilu_numeric",
           "heavy_edge_matching", "contract_graph", "fm_refine",
           "repair_contiguity"]

#: Compiled kernel -> dotted path(s) of the numpy oracle it must match.
__oracles__ = {
    "spmv_bsr": "repro.sparse.bsr.BSRMatrix.matvec",
    "gather_spmv_bsr": "repro.parallel.spmd.rank_matvec",
    "seq_matvec_bsr": "repro.parallel.spmd.distributed_matvec",
    "trisolver": ("repro.sparse.trisolve.lower_solve_blocks",
                  "repro.sparse.trisolve.upper_solve_blocks_inplace"),
    "ilu_symbolic": "repro.sparse.ilu.ilu_symbolic_ref",
    "ilu_numeric": "repro.sparse.ilu.ilu_bsr_ref",
    "rusanov_jacobian_scatter": "repro.euler.fluxes.rusanov_flux_jacobians",
    "boundary_closure": "repro.euler.discretization.EdgeFVDiscretization."
                        "_add_boundary_residual",
    "rusanov_scatter": "repro.euler.fluxes.rusanov_flux",
    "green_gauss": "repro.euler.reconstruction.green_gauss_gradients",
    "muscl_rusanov_scatter":
        "repro.euler.reconstruction.reconstruct_edge_states",
    "heavy_edge_matching": "repro.partition.coarsen.heavy_edge_matching_ref",
    "contract_graph": "repro.partition.coarsen.contract_graph_ref",
    "fm_refine": "repro.partition.refine.fm_refine_ref",
    "repair_contiguity": "repro.partition.refine.repair_contiguity_ref",
}

#: Block-size cap of the compiled BSR kernels (the C source's MAX_BS:
#: its stack buffers).
MAX_BS = 32

#: Status codes of the ILU kernels (the ``ILU_*`` enum of the C source):
#: success, an A column outside ``[0, n)``; a status >= 0 is the row
#: whose pivot is zero or singular, ``ILU_BAD_SLOT`` (-5) a slot outside
#: A's blocks, any other an output buffer full.
ILU_OK, ILU_BAD_COLUMN = -1, -2

#: Flux families the edge kernels compile: model -> (ncomp, the suffix
#: of its C symbols).
_MODELS = {"incompressible": (4, "_inc"), "compressible": (5, "_comp")}


def backend_for(engine: str):
    """The C backend serving ``engine``, or None for numpy."""
    if capability.resolve_engine(engine) != "c":
        return None
    return capability._backend()


# ----------------------------------------------------------------------
# validation helpers
# ----------------------------------------------------------------------

def _f64(a: np.ndarray) -> np.ndarray | None:
    if a.dtype != np.float64:
        return None
    return np.ascontiguousarray(a)


def _vector(x) -> np.ndarray | None:
    """A float64 vector operand; a float32 one (an fp32 Krylov vector)
    is widened, which is exact."""
    x = np.asarray(x)
    return _f64(x.astype(np.float64) if x.dtype == np.float32 else x)


def _column_major(blocks: np.ndarray) -> np.ndarray | None:
    """Block factor storage as the C trisolves read it: the C-contiguous
    buffer of its blocks, each column-major, float64 or float32 (Table
    2's precision knob).  A compiled factor's ``[r, c]`` blocks are
    transposed views of such a buffer and go in place; a row-major
    factor is copied."""
    if blocks.ndim != 3 or blocks.dtype not in (np.float64, np.float32):
        return None
    return np.ascontiguousarray(blocks.transpose(0, 2, 1))


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


# ----------------------------------------------------------------------
# kernels — None/False means "run the numpy oracle instead"; the C
# matrix kernels return the first row (block, rank) with an index out
# of range and the edge kernels the first such edge, else -1, and a
# partial output is dropped
# ----------------------------------------------------------------------

def _blocks_ok(data, nnzb, x, nrows=None) -> bool:
    """``data`` is ``nnzb`` square blocks the C stack buffers fit, and
    ``x`` a whole number of block rows (``nrows`` of them, if given)."""
    if not (data.ndim == 3 and data.shape[0] == nnzb
            and 1 <= data.shape[1] == data.shape[2] <= MAX_BS):
        return False
    bs = data.shape[1]
    return x.size % bs == 0 if nrows is None else x.size == nrows * bs


def spmv_bsr(indptr, indices, data, x, nbrows, nbcols, engine):
    """Block SpMV on float64 blocks; ULP-bounded vs the
    einsum/segment-sum oracle.  A float32 ``x`` (an fp32 Krylov vector)
    is widened to float64 first — exactly, as the oracle's einsum
    widens it — and the result is float64; float32 blocks, and an ``x``
    of other than ``nbcols`` block rows, decline."""
    backend = backend_for(engine)
    if backend is None:
        return None
    data = _f64(np.asarray(data))
    x = _vector(x)
    indptr, indices = _i64(indptr), _i64(indices)
    if (data is None or x is None
            or not _blocks_ok(data, indices.size, x, int(nbcols))):
        return None
    bs, nbrows, p = data.shape[1], int(nbrows), backend.ptr
    y = np.empty(nbrows * bs)
    bad = backend.lib.spmv_bsr_f64(
        nbrows, bs, x.size // bs, data.shape[0], p(indptr), p(indices),
        p(data), p(x), p(y, True))
    return None if bad >= 0 else y


def gather_spmv_bsr(data, cols, seg, x, n_owned, engine):
    """The SPMD rank SpMV on a rank's pre-gathered blocks, ULP-bounded:
    ``y[seg[k]] += data[k] x[cols[k]]``.  A float32 ``x`` is widened
    exactly, as in :func:`spmv_bsr`; the result is float64."""
    backend = backend_for(engine)
    if backend is None:
        return None
    data = _f64(np.asarray(data))
    x = _vector(x)
    cols, seg = _i64(cols), _i64(seg)
    if (data is None or x is None or seg.shape != cols.shape
            or not _blocks_ok(data, cols.size, x)):
        return None
    bs, n_owned, p = data.shape[1], int(n_owned), backend.ptr
    y = np.zeros((n_owned, bs))
    bad = backend.lib.gather_spmv_bsr_f64(
        cols.size, bs, x.size // bs, n_owned, p(cols), p(seg), p(data),
        p(x), p(y, True))
    return None if bad >= 0 else y


def seq_matvec_bsr(home, row_off, ghost_off, ghost_src, blk_off, flat, cols,
                   seg, data, x, engine):
    """The ``seq`` executor's whole matvec in one call, through a
    :class:`~repro.parallel.spmd.ScatterPlan`'s arrays: distribute ``x``
    into the flat buffer through ``home``, refresh every rank's ghost
    rows (the last ``ghost_off[r + 1] - ghost_off[r]`` of rank ``r``'s
    rows ``row_off[r] .. row_off[r + 1]``) from ``ghost_src``, then run
    every rank's blocks ``blk_off[r] .. blk_off[r + 1]`` as its
    :func:`gather_spmv_bsr` on ``data[flat[k]]``, read in place, with
    ``cols`` and ``seg`` the rank's own rows and owned rows.

    Returns ``(y, times)``: ``y`` float64 — bitwise the per-rank
    :func:`gather_spmv_bsr` and the global :func:`spmv_bsr`, whose block
    products it adds in the same order — and ``times`` of shape
    ``(nranks, 2)``, each rank's refresh and matvec seconds.  A float32
    ``x`` is widened exactly.  None for the numpy per-rank loop (the
    oracle): no backend, an operand outside the contract, or an index
    out of range.
    """
    backend = backend_for(engine)
    if backend is None:
        return None
    data = _f64(np.asarray(data))
    x = _vector(x)
    home, row_off, ghost_off, ghost_src, blk_off, flat, cols, seg = map(
        _i64, (home, row_off, ghost_off, ghost_src, blk_off, flat, cols, seg))
    if (data is None or x is None
            or not _blocks_ok(data, data.shape[0], x, home.size)
            or row_off.ndim != 1 or row_off.size < 1 or row_off[0] != 0
            or not row_off.shape == ghost_off.shape == blk_off.shape
            or not flat.shape == cols.shape == seg.shape):
        return None
    bs, p = data.shape[1], backend.ptr
    nranks, nrows = row_off.size - 1, int(row_off[-1])
    # the flat buffer of every rank's rows and its products
    buf, ybuf = np.empty(nrows * bs), np.zeros(nrows * bs)
    y = np.empty(home.size * bs)
    times = np.zeros((nranks, 2))
    bad = backend.lib.seq_matvec_bsr_f64(
        nranks, bs, home.size, nrows, ghost_src.size, cols.size,
        data.shape[0], *map(p, (home, row_off, ghost_off, ghost_src,
                                blk_off, flat, cols, seg, data, x)),
        *(p(a, True) for a in (buf, ybuf, y, times)))
    return None if bad >= 0 else (y, times)


def trisolver(indptr, indices, data, inv_diag, bs, backend):
    """One triangle of a block ILU factor, its operands checked once for
    the C solves: a callable ``solve(x) -> bool``, or None for the numpy
    batches of :mod:`repro.sparse.trisolve` (the oracles).

    ``inv_diag`` None is a unit lower triangle, solved rows 0..n-1;
    otherwise an upper one with the diagonal blocks' inverses, solved
    rows n-1..0 — natural order, a topological order of any strictly
    triangular pattern.  The ``(bs, bs)`` blocks are ULP-bounded against
    their einsum and read column-major: a compiled factor's ``[r, c]``
    blocks are transposed views of such buffers and go in place, a
    row-major factor (a numpy-tier one, or one built by hand) is copied
    once, here.  Values are float32 or float64 (widened before any
    arithmetic), ``inv_diag`` of the same dtype, the pattern int64.

    ``solve(x)`` checks only ``x`` — float64, C-contiguous, sized to
    the rows — and solves it in place: True when every row is solved;
    False outside that contract, or on an index out of range after the
    rows before it were solved (the caller starts again from its
    right-hand side).
    """
    if backend is None or not 1 <= bs <= MAX_BS:
        return None
    bs = int(bs)
    blk = (bs, bs)
    data = _column_major(np.asarray(data))
    indptr, indices = _i64(indptr), _i64(indices)
    if data is None or data.shape != indices.shape + blk:
        return None
    n, p = indptr.size - 1, backend.ptr
    args = (n, bs, indices.size, p(indptr), p(indices), p(data))
    if inv_diag is None:
        side = "lower"
    else:
        inv_diag = _column_major(np.asarray(inv_diag))
        if (inv_diag is None or inv_diag.dtype != data.dtype
                or inv_diag.shape != (n,) + blk):
            return None
        side, args = "upper", args + (p(inv_diag),)
    prec = "f32" if data.dtype == np.float32 else "f64"
    fn = getattr(backend.lib, f"{side}_solve_bsr_{prec}")
    size = n * bs

    def solve(x):
        return (x.dtype == np.float64 and x.flags.c_contiguous
                and x.size == size and fn(*args, p(x, True)) < 0)
    return solve


def ilu_symbolic(indptr, indices, fill_level, engine):
    """Level-of-fill ILU(k) pattern of a square sparsity, as the arrays
    ``(l_indptr, l_indices, l_levels, u_indptr, u_indices, u_levels)``;
    integer-exact vs :func:`repro.sparse.ilu.ilu_symbolic_ref`.  None
    for the numpy path, including on a column index outside ``[0, n)``.
    """
    backend = backend_for(engine)
    if backend is None:
        return None
    indptr, indices = _i64(indptr), _i64(indices)
    if not _csr_structure_ok(indptr, indices.size):
        return None
    n, fill_level, p = indptr.size - 1, int(fill_level), backend.ptr
    # Output capacity starts at the ILU(0) size times fill_level + 1
    # and doubles until the pattern fits: one or two builds a pattern.
    cap = (indices.size + n) * (fill_level + 1)
    while True:
        l_ptr, u_ptr, nxt = (np.empty(n + 1, dtype=np.int64)
                             for _ in range(3))
        l_idx, l_lev, u_idx, u_lev = (np.empty(cap, dtype=np.int64)
                                      for _ in range(4))
        lev = np.full(n, -1, dtype=np.int64)
        status = backend.lib.ilu_symbolic_i64(
            n, fill_level, p(indptr), p(indices), cap, cap,
            *(p(a, True) for a in (l_ptr, l_idx, l_lev, u_ptr, u_idx, u_lev,
                                   lev, nxt)))
        if status == ILU_OK:
            nl, nu = int(l_ptr[-1]), int(u_ptr[-1])
            return (l_ptr, l_idx[:nl].copy(), l_lev[:nl].copy(),
                    u_ptr, u_idx[:nu].copy(), u_lev[:nu].copy())
        if status == ILU_BAD_COLUMN:
            return None
        cap *= 2


def ilu_numeric(pattern, indptr, indices, data, engine, out=None,
                slots=None):
    """Numeric ILU of a BSR matrix (``data`` of shape ``(nnz, bs, bs)``)
    on the symbolic ``pattern`` (an :class:`~repro.sparse.ilu.
    ILUPattern`): ``(l_data, u_data, inv_diag)`` in float64, or in
    ``out``'s own storage dtype where it writes them in place, the IKJ
    arithmetic of ``ilu_bsr_ref``, ULP-bounded.

    ``slots`` (one per entry of ``indices``) makes entry ``t`` the block
    ``data[slots[t]]``: a principal submatrix of a larger matrix, read
    through its slot map without being extracted.

    ``out`` is a previous factor's ``(l_data, u_data, inv_diag)``.
    Where they are ``[slot, r, c]`` views of C-contiguous float64 or
    float32 buffers of column-major blocks — a compiled factor's
    storage — the kernel writes into them and returns them as given,
    so a Jacobian refresh allocates no second factor; float32 storage
    receives each value rounded as ``astype`` rounds the float64
    factor, with U and the pivot inverses kept in one float64 scratch
    while later rows read them.  Otherwise (row-major storage) it
    returns fresh float64 arrays, as without ``out``.

    A singular pivot block raises ``np.linalg.LinAlgError``, naming the
    row, as the numpy tier does; an ``out`` written in place is then
    partly new.  None for the numpy path: no backend, a dtype or block
    size outside the kernel's contract, or a column index or slot out
    of range (so the numpy path raises what it raises).
    """
    backend = backend_for(engine)
    if backend is None:
        return None
    data = _f64(np.asarray(data))
    if (data is None or data.ndim != 3 or data.shape[1] != data.shape[2]
            or data.shape[1] > MAX_BS):
        return None
    n = pattern.n
    indptr, indices = _i64(indptr), _i64(indices)
    slots = None if slots is None else _i64(slots)
    # one block (or one slot, checked in C) per entry
    entries = data if slots is None else slots
    if (indptr.size != n + 1 or entries.shape[0] != indices.size
            or not _csr_structure_ok(indptr, indices.size)):
        return None
    tri = [_i64(a) for a in (pattern.l_indptr, pattern.l_indices,
                             pattern.u_indptr, pattern.u_indices)]
    for ptr, idx in (tri[:2], tri[2:]):
        if (ptr.size != n + 1 or not _csr_structure_ok(ptr, idx.size)
                or (idx.size and (idx.min() < 0 or idx.max() >= n))):
            return None
    l_iptr, l_idx, u_iptr, u_idx = tri
    bs, p = data.shape[1], backend.ptr
    shapes = [(m, bs, bs) for m in (l_idx.size, u_idx.size, n)]
    bufs = [x.transpose(0, 2, 1) for x in out or ()]
    dtype = bufs[0].dtype if bufs else None
    in_place = dtype in (np.float64, np.float32) and all(
        b.shape == shape and b.dtype == dtype and b.flags.c_contiguous
        and b.flags.writeable for b, shape in zip(bufs, shapes))
    factors = bufs if in_place else [np.empty(shape) for shape in shapes]
    width = int((np.diff(l_iptr) + np.diff(u_iptr)).max(initial=0)) + 1
    pos = np.full(n, -1, dtype=np.int64)
    # the working row: block columns padded to a multiple of 8 lanes
    w = np.empty(width * bs * (-(-bs // 8) * 8))
    args = (n, bs, *map(p, (l_iptr, l_idx, u_iptr, u_idx, indptr, indices)),
            backend.ffi.NULL if slots is None else p(slots), data.shape[0],
            p(data), *(p(a, True) for a in factors))
    if factors[0].dtype == np.float32:
        # U's rows and the pivot inverses in float64 while later rows
        # read them: (nnzu + n) blocks
        scratch = np.empty((u_idx.size + n) * bs * bs)
        status = backend.lib.ilu_numeric_f32(
            *args, p(scratch, True), p(pos, True), p(w, True))
    else:
        status = backend.lib.ilu_numeric_f64(*args, p(pos, True),
                                             p(w, True))
    if status >= 0:
        raise np.linalg.LinAlgError(
            f"singular pivot block in block ILU at row {status}")
    if status != ILU_OK:
        return None
    if in_place:
        return tuple(out)
    # C wrote each block column-major: the [r, c] views
    return tuple(a.transpose(0, 2, 1) for a in factors)


def _csr_structure_ok(indptr, nnz) -> bool:
    """Row pointers a C row loop can trust: 0 .. nnz, non-decreasing."""
    return (indptr.size >= 1 and indptr[0] == 0 and indptr[-1] == nnz
            and bool(np.all(indptr[1:] >= indptr[:-1])))


def rusanov_scatter(e0, e1, ql, qr, s, n, model, param, engine):
    """Fused Rusanov flux + two-target edge scatter.

    Computes ``F = (F(ql)+F(qr))/2 - lam/2 (qr-ql)`` for the named
    flux family (``param`` is beta for incompressible, gamma for
    compressible) and accumulates it into both endpoint accumulators
    in edge order — one pass, no flux temporary.  The scalar operation
    order mirrors :func:`repro.euler.fluxes.rusanov_flux`'s numpy
    expression, so the result is ULP-bounded against the oracle (the
    length-3 dot products may associate differently under SIMD).
    Returns ``(acc_a, acc_b)`` — the residual is ``acc_a - acc_b`` —
    or None for the numpy path.
    """
    backend = backend_for(engine)
    if backend is None:
        return None
    if model not in _MODELS:
        return None
    ncomp, suffix = _MODELS[model]
    ql = _f64(np.asarray(ql))
    qr = _f64(np.asarray(qr))
    s = _f64(np.asarray(s))
    if ql is None or qr is None or s is None:
        return None
    if ql.shape != qr.shape or ql.ndim != 2 or ql.shape[1] != ncomp:
        return None
    e0, e1 = _i64(e0), _i64(e1)
    if not e0.shape == e1.shape == ql.shape[:1] or s.shape != (e0.size, 3):
        return None
    n, p = int(n), backend.ptr
    out_a, out_b = np.zeros((n, ncomp)), np.zeros((n, ncomp))
    bad = getattr(backend.lib, "rusanov_scatter" + suffix)(
        e0.size, n, *map(p, (e0, e1, ql, qr, s)), float(param),
        p(out_a, True), p(out_b, True))
    return None if bad >= 0 else (out_a, out_b)


def boundary_closure(q, r, rows, normals, qinf, model, param, engine) -> bool:
    """Add the boundary closure of ``model`` to the residual rows ``r``
    in place: the wall flux on the wall rows, the Rusanov flux against
    the freestream ``qinf`` on the far-field rows.

    ``rows`` is :meth:`~repro.euler.boundary.BoundaryCondition.row_sets`'
    ``(wall_rows, wall_idx, far_rows, far_idx)``: rows of ``q`` / ``r``
    and positions in ``normals``.  **Bitwise**
    :meth:`repro.euler.discretization.EdgeFVDiscretization.
    _add_boundary_residual`'s numpy path, signed zeros included.  True
    when done; False, with ``r`` untouched, for the numpy path: no
    backend, an input outside the contract (``r`` must be a float64
    C-contiguous array shaped like ``q``) or a row or normal index out
    of range.
    """
    backend = backend_for(engine)
    if backend is None:
        return False
    if model not in _MODELS or qinf is None:
        return False
    ncomp, suffix = _MODELS[model]
    q = _f64(np.asarray(q))
    normals = _f64(np.asarray(normals))
    qinf = _f64(np.asarray(qinf))
    if (q is None or normals is None or qinf is None
            or q.ndim != 2 or q.shape[1] != ncomp or qinf.shape != (ncomp,)
            or normals.ndim != 2 or normals.shape[1] != 3
            or not isinstance(r, np.ndarray) or r.dtype != np.float64
            or not r.flags.c_contiguous or not r.flags.writeable
            or r.shape != q.shape):
        return False
    wall_rows, wall_idx, far_rows, far_idx = map(_i64, rows)
    if not (wall_rows.ndim == 1 and wall_rows.shape == wall_idx.shape
            and far_rows.ndim == 1 and far_rows.shape == far_idx.shape):
        return False
    p = backend.ptr
    return getattr(backend.lib, "boundary_closure" + suffix)(
        q.shape[0], normals.shape[0], wall_rows.size, p(wall_rows),
        p(wall_idx), far_rows.size, p(far_rows), p(far_idx),
        *map(p, (q, normals, qinf)), float(param), p(r, True)) < 0


def green_gauss(e0, e1, q, s, bnd, vol, engine):
    """Green-Gauss nodal gradients ``(n, ncomp, 3)`` in one edge pass.

    Twin of :func:`repro.euler.reconstruction.green_gauss_gradients`
    for any ``ncomp``: ``s`` are the dual-face area vectors, ``bnd``
    the per-vertex boundary area vectors, ``vol`` the dual volumes.
    Two per-endpoint accumulators fill in edge order and each vertex
    finishes ``((a - b) + q n_bnd) / V`` in the oracle's operation
    order, so the result is **bitwise** the oracle's.  None for the
    numpy path.
    """
    backend = backend_for(engine)
    if backend is None:
        return None
    q = _f64(np.asarray(q))
    s = _f64(np.asarray(s))
    bnd = _f64(np.asarray(bnd))
    vol = _f64(np.asarray(vol))
    if q is None or s is None or bnd is None or vol is None or q.ndim != 2:
        return None
    e0, e1 = _i64(e0), _i64(e1)
    n = q.shape[0]
    if (e0.shape != e1.shape or s.shape != (e0.size, 3)
            or bnd.shape != (n, 3) or vol.shape != (n,)):
        return None
    ncomp, p = q.shape[1], backend.ptr
    grad, acc_b = np.zeros((n, ncomp, 3)), np.zeros((n, ncomp, 3))
    bad = backend.lib.green_gauss_f64(
        e0.size, n, ncomp, *map(p, (e0, e1, q, s, bnd, vol)),
        p(grad, True), p(acc_b, True))
    return None if bad >= 0 else grad


#: Limiter name (the values of
#: :class:`repro.euler.reconstruction.Limiter`) -> its code in the fused
#: second-order kernel (the ``LIMITER_*`` enum of the C source).
_LIMITERS = {"none": 0, "van_albada": 1, "minmod": 2}


def muscl_rusanov_scatter(e0, e1, q, grad, coords, s, limiter, model,
                          param, engine):
    """Fused MUSCL reconstruction + Rusanov flux + two-target scatter.

    Per edge, in one loop: ``dx`` from ``coords``, the central and the
    two one-sided slopes from ``grad``, the limiter (``"none"``,
    ``"van_albada"``, ``"minmod"``), the face flux of ``model`` and the
    scatter — no ``(ne, ...)`` array is formed.  The scalar expression
    order is :func:`repro.euler.reconstruction.reconstruct_edge_states`'
    followed by :func:`rusanov_scatter`'s, so the result is ULP-bounded
    against that numpy composition (sequential length-3 dots where
    einsum may pair).  Returns ``(acc_a, acc_b)`` — the residual is
    ``acc_a - acc_b`` — or None for the numpy path.
    """
    backend = backend_for(engine)
    if backend is None:
        return None
    code = _LIMITERS.get(limiter)
    if model not in _MODELS or code is None:
        return None
    ncomp, suffix = _MODELS[model]
    q = _f64(np.asarray(q))
    grad = _f64(np.asarray(grad))
    coords = _f64(np.asarray(coords))
    s = _f64(np.asarray(s))
    if q is None or grad is None or coords is None or s is None:
        return None
    e0, e1 = _i64(e0), _i64(e1)
    n = coords.shape[0]
    if (q.shape != (n, ncomp) or grad.shape != (n, ncomp, 3)
            or coords.shape != (n, 3) or e0.shape != e1.shape
            or s.shape != (e0.size, 3)):
        return None
    p = backend.ptr
    out_a, out_b = np.zeros((n, ncomp)), np.zeros((n, ncomp))
    bad = getattr(backend.lib, "muscl_rusanov_scatter" + suffix)(
        e0.size, n, *map(p, (e0, e1, q, grad, coords, s)), code,
        float(param), p(out_a, True), p(out_b, True))
    return None if bad >= 0 else (out_a, out_b)


def rusanov_jacobian_scatter(e0, e1, ij_slots, ji_slots, q, s, nnzb, model,
                             param, engine):
    """First-order Rusanov Jacobian of every edge, scattered in one pass.

    Per edge ``(i, j)``: the flux Jacobians ``A(q_i)``, ``A(q_j)`` of
    ``model`` (``param`` is beta for incompressible, gamma for
    compressible) and the frozen ``lam``; ``jr`` lands in block
    ``ij_slots`` and ``-jl`` in block ``ji_slots`` of a fresh
    ``(nnzb, nc, nc)`` data array, and ``jl`` / ``jr`` / ``lam``
    accumulate into per-vertex sums in edge order.  Returns ``(data,
    diag, lam_sum)``: ``diag`` the edge part of the diagonal blocks
    (``sum_{e0==i} jl - sum_{e1==i} jr``), ``lam_sum`` the edge part of
    the pseudo-timestep's wave-speed sum (``sum_{e0==i} lam + sum_{e1==i}
    lam``), each **bitwise** its numpy composition
    (:func:`repro.euler.fluxes.rusanov_flux_jacobians`, the wave
    speeds, two ``segment_sum`` per sum, the slot assignments).  None
    for the numpy path, including on an endpoint outside ``[0, n)`` or
    a slot outside ``[0, nnzb)``.
    """
    backend = backend_for(engine)
    if backend is None:
        return None
    if model not in _MODELS:
        return None
    ncomp, suffix = _MODELS[model]
    q = _f64(np.asarray(q))
    s = _f64(np.asarray(s))
    if q is None or s is None or q.ndim != 2 or q.shape[1] != ncomp:
        return None
    e0, e1 = _i64(e0), _i64(e1)
    ij_slots, ji_slots = _i64(ij_slots), _i64(ji_slots)
    if (not e0.shape == e1.shape == ij_slots.shape == ji_slots.shape
            or s.shape != (e0.size, 3)):
        return None
    n, nnzb, p = q.shape[0], int(nnzb), backend.ptr
    blk = (ncomp, ncomp)
    data = np.zeros((nnzb,) + blk)
    acc_a, acc_b = np.zeros((n,) + blk), np.zeros((n,) + blk)
    lam_a, lam_b = np.zeros(n), np.zeros(n)
    bad = getattr(backend.lib, "rusanov_jacobian_scatter" + suffix)(
        e0.size, n, nnzb, *map(p, (e0, e1, ij_slots, ji_slots, q, s)),
        float(param), *(p(a, True) for a in (data, acc_a, acc_b, lam_a,
                                             lam_b)))
    if bad >= 0:
        return None
    # in place: the same operations, no third (n, ncomp, ncomp) array
    np.subtract(acc_a, acc_b, out=acc_a)
    np.add(lam_a, lam_b, out=lam_a)
    return data, acc_a, lam_a


# ----------------------------------------------------------------------
# the multilevel k-way partitioner: each phase bitwise its numpy twin in
# repro.partition, a label per vertex; None, with nothing changed, on an
# adjacency entry, label or partner out of range
# ----------------------------------------------------------------------

def _graph_ok(xadj, adjncy, vwgt, ewgt) -> bool:
    """A CSR graph a C row loop can trust, one weight per vertex and one
    per adjacency entry."""
    return (_csr_structure_ok(xadj, adjncy.size)
            and vwgt.shape == (xadj.size - 1,)
            and ewgt.shape == adjncy.shape)


def heavy_edge_matching(xadj, adjncy, ewgt, order, engine):
    """Heavy-edge matching in the visit ``order`` (a permutation of the
    vertices, drawn by the caller): ``match`` with ``match[v]`` the
    partner of ``v``, or ``v``.  Each unmatched vertex takes its
    unmatched neighbour of heaviest edge, the first in its adjacency on
    a tie, as ``np.argmax`` does.  None for the numpy path."""
    backend = backend_for(engine)
    if backend is None:
        return None
    xadj, adjncy, ewgt, order = map(_i64, (xadj, adjncy, ewgt, order))
    n, p = xadj.size - 1, backend.ptr
    if not (_csr_structure_ok(xadj, adjncy.size)
            and ewgt.shape == adjncy.shape and order.shape == (n,)):
        return None
    match = np.empty(n, dtype=np.int64)
    bad = backend.lib.hem_match_i64(n, p(xadj), p(adjncy), p(ewgt),
                                    p(order), p(match, True))
    return None if bad >= 0 else match


def contract_graph(xadj, adjncy, vwgt, ewgt, match, engine):
    """The coarse graph of a matching: ``(fine_to_coarse, xadj, adjncy,
    vwgt, ewgt)``, coarse vertices numbered by their lower fine vertex
    and each coarse row ascending, with vertex and edge weights summed
    as :func:`repro.graph.graph_from_edges` merges them.  None for the
    numpy path."""
    backend = backend_for(engine)
    if backend is None:
        return None
    xadj, adjncy, vwgt, ewgt, match = map(
        _i64, (xadj, adjncy, vwgt, ewgt, match))
    n, m, p = xadj.size - 1, adjncy.size, backend.ptr
    if not _graph_ok(xadj, adjncy, vwgt, ewgt) or match.shape != (n,):
        return None
    f2c, nc = np.empty(n, dtype=np.int64), np.empty(1, dtype=np.int64)
    cxadj, cvwgt = (np.empty(k, dtype=np.int64) for k in (n + 1, n))
    cadjncy, cewgt = (np.empty(m, dtype=np.int64) for _ in range(2))
    work = np.empty(5 * n + 2 + 2 * m, dtype=np.int64)
    bad = backend.lib.contract_i64(
        n, *map(p, (xadj, adjncy, vwgt, ewgt, match)),
        *(p(a, True) for a in (f2c, nc, cxadj, cadjncy, cvwgt, cewgt, work)))
    if bad >= 0:
        return None
    nc = int(nc[0])
    nnz = int(cxadj[nc])
    return (f2c, cxadj[:nc + 1].copy(), cadjncy[:nnz].copy(),
            cvwgt[:nc].copy(), cewgt[:nnz].copy())


def fm_refine(xadj, adjncy, vwgt, ewgt, labels, nparts, max_passes,
              strict_balance, cap, engine):
    """FM refinement of ``labels`` into ``nparts`` parts, up to
    ``max_passes`` passes under the part-weight bound ``cap`` (or, with
    ``strict_balance``, only into lighter parts), then, unless strict,
    the rebalance: the new labels, bitwise
    :func:`repro.partition.refine.fm_refine_ref`'s (a pass's moves go in
    descending gain order, vertex then part ascending on a tie, and the
    rebalance's in ascending loss order likewise).  None for the numpy
    path."""
    backend = backend_for(engine)
    if backend is None:
        return None
    xadj, adjncy, vwgt, ewgt = map(_i64, (xadj, adjncy, vwgt, ewgt))
    labels = np.array(labels, dtype=np.int64)
    n, nparts, p = xadj.size - 1, int(nparts), backend.ptr
    if (not _graph_ok(xadj, adjncy, vwgt, ewgt) or labels.shape != (n,)
            or nparts < 1):
        return None
    c = max(adjncy.size, 1)     # candidates: at most one per arc
    part_w, acc = np.empty(nparts), np.empty(nparts)
    stamp, touched = (np.empty(nparts, dtype=np.int64) for _ in range(2))
    cand, key = np.empty(4 * c, dtype=np.int64), np.empty(c)
    seen = np.empty(n, dtype=np.int64)
    bad = backend.lib.fm_refine_i64(
        n, nparts, *map(p, (xadj, adjncy, vwgt, ewgt)), int(max_passes),
        int(bool(strict_balance)), float(cap),
        *(p(a, True) for a in (labels, part_w, stamp, touched, acc, cand,
                               key, seen)))
    return None if bad >= 0 else labels


def repair_contiguity(xadj, adjncy, vwgt, ewgt, labels, nparts, engine):
    """Contiguity repair of ``labels``: the new labels, bitwise
    :func:`repro.partition.refine.repair_contiguity_ref`'s (components
    numbered by their smallest vertex, ties to the lowest component and
    the lowest part).  None for the numpy path."""
    backend = backend_for(engine)
    if backend is None:
        return None
    xadj, adjncy, vwgt, ewgt = map(_i64, (xadj, adjncy, vwgt, ewgt))
    labels = np.array(labels, dtype=np.int64)
    n, nparts, p = xadj.size - 1, int(nparts), backend.ptr
    if (not _graph_ok(xadj, adjncy, vwgt, ewgt) or labels.shape != (n,)
            or nparts < 1):
        return None
    work = np.empty(5 * n + 1 + 3 * nparts, dtype=np.int64)
    dwork = np.empty(n + 2 * nparts)
    bad = backend.lib.repair_contiguity_i64(
        n, nparts, *map(p, (xadj, adjncy, vwgt, ewgt)), p(labels, True),
        p(work, True), p(dwork, True))
    return None if bad >= 0 else labels
