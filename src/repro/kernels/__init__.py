"""Compiled kernel tier: an optional C backend behind the oracles.

The paper's hot paths — block ILU set-up and triangular solves,
flux-residual scatter, block SpMV, first-order Jacobian assembly — are
kernels whose numpy formulations pay for gather/scatter index arrays
and multi-pass temporaries.  This package provides compiled twins (a
cffi-compiled C library) selected by the ``engine="compiled"`` knob —
the default of :class:`repro.core.SolverConfig` — that the solver
threads through the discretisation, preconditioners, and SPMD
executors.  Only kernels a solve runs have a twin: the scalar (AIJ)
matrices, Table 1's traced baseline, keep their numpy kernels alone.

Contract:

* the numpy implementation is always retained and is the oracle —
  the scatter kernels, the Green-Gauss gradients, the Jacobian
  assembly and the boundary closure match it **bitwise**, block
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
from repro.kernels.cbackend import ILU_OK

__all__ = ["backend_for", "resolve_engine",
           "spmv_bsr", "gather_spmv_bsr", "seq_matvec_bsr", "trisolver",
           "rusanov_jacobian_scatter", "boundary_closure",
           "rusanov_scatter", "green_gauss",
           "muscl_rusanov_scatter", "ilu_symbolic", "ilu_numeric"]

#: Block-size cap of the compiled BSR kernels (C stack buffers).
MAX_BS = 32


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
# dispatchers — None/False means "run the numpy oracle instead"
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
    return backend.spmv_bsr(indptr, indices, data, x, int(nbrows))


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
    return backend.gather_spmv_bsr(data, cols, seg, x, int(n_owned))


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
    return backend.seq_matvec_bsr(home, row_off, ghost_off, ghost_src,
                                  blk_off, flat, cols, seg, data, x)


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
    if inv_diag is None:
        return backend.lower_solver(indptr, indices, data, bs)
    inv_diag = _column_major(np.asarray(inv_diag))
    if (inv_diag is None or inv_diag.dtype != data.dtype
            or inv_diag.shape != (indptr.size - 1,) + blk):
        return None
    return backend.upper_solver(indptr, indices, data, inv_diag, bs)


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
    return backend.ilu_symbolic(indptr, indices, int(fill_level))


def ilu_numeric(pattern, indptr, indices, data, engine):
    """Numeric ILU of a BSR matrix (``data`` of shape ``(nnz, bs, bs)``)
    on the symbolic ``pattern`` (an :class:`~repro.sparse.ilu.
    ILUPattern`): ``(l_data, u_data, inv_diag)`` in float64, the IKJ
    arithmetic of ``ilu_bsr_ref``, ULP-bounded.

    A singular pivot block raises ``np.linalg.LinAlgError``, naming the
    row, as the numpy tier does.  None for the numpy path: no backend, a
    dtype or block size outside the kernel's contract, or a column index
    outside ``[0, n)`` (so the numpy path raises what it raises).
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
    if (indptr.size != n + 1 or data.shape[0] != indices.size
            or not _csr_structure_ok(indptr, indices.size)):
        return None
    tri = [_i64(a) for a in (pattern.l_indptr, pattern.l_indices,
                             pattern.u_indptr, pattern.u_indices)]
    for ptr, idx in (tri[:2], tri[2:]):
        if (ptr.size != n + 1 or not _csr_structure_ok(ptr, idx.size)
                or (idx.size and (idx.min() < 0 or idx.max() >= n))):
            return None
    status, l_data, u_data, inv_diag = backend.ilu_numeric(
        n, *tri, indptr, indices, data)
    if status >= 0:
        raise np.linalg.LinAlgError(
            f"singular pivot block in block ILU at row {status}")
    if status != ILU_OK:
        return None
    return l_data, u_data, inv_diag


def _csr_structure_ok(indptr, nnz) -> bool:
    """Row pointers a C row loop can trust: 0 .. nnz, non-decreasing."""
    return (indptr.size >= 1 and indptr[0] == 0 and indptr[-1] == nnz
            and bool(np.all(indptr[1:] >= indptr[:-1])))


#: Flux families the fused Rusanov kernel compiles (model id, ncomp).
_RUSANOV_MODELS = {"incompressible": 4, "compressible": 5}


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
    ncomp = _RUSANOV_MODELS.get(model)
    if ncomp is None:
        return None
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
    return backend.rusanov_scatter(e0, e1, ql, qr, s, int(n), model,
                                   float(param))


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
    ncomp = _RUSANOV_MODELS.get(model)
    if ncomp is None or qinf is None:
        return False
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
    return backend.boundary_closure(q, r, wall_rows, wall_idx, far_rows,
                                    far_idx, normals, qinf, model,
                                    float(param))


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
    return backend.green_gauss(e0, e1, q, s, bnd, vol)


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
    ncomp = _RUSANOV_MODELS.get(model)
    code = _LIMITERS.get(limiter)
    if ncomp is None or code is None:
        return None
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
    return backend.muscl_rusanov_scatter(e0, e1, q, grad, coords, s, code,
                                         model, float(param))


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
    ncomp = _RUSANOV_MODELS.get(model)
    if ncomp is None:
        return None
    q = _f64(np.asarray(q))
    s = _f64(np.asarray(s))
    if q is None or s is None or q.ndim != 2 or q.shape[1] != ncomp:
        return None
    e0, e1 = _i64(e0), _i64(e1)
    ij_slots, ji_slots = _i64(ij_slots), _i64(ji_slots)
    if (not e0.shape == e1.shape == ij_slots.shape == ji_slots.shape
            or s.shape != (e0.size, 3)):
        return None
    return backend.rusanov_jacobian_scatter(e0, e1, ij_slots, ji_slots, q, s,
                                            int(nnzb), model, float(param))
