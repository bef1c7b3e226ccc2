"""Compiled kernel tier: an optional C backend behind the oracles.

The paper's hot paths — ILU set-up and triangular solves,
flux-residual scatter, SpMV, Jacobian-assembly scatter — are kernels whose
numpy formulations pay for gather/scatter index arrays and multi-pass
temporaries.  This package provides compiled twins (a cffi-compiled C
library) selected by the ``engine="compiled"`` knob — the default of
:class:`repro.core.SolverConfig` — that the solver threads through the
discretisation, preconditioners, and SPMD executors, exactly like
``memory.fastsim``'s ``engine=``.

Contract:

* the numpy implementation is always retained and is the oracle —
  scatter/CSR kernels and the Green-Gauss gradients match it
  **bitwise**, block kernels and the fused flux kernels within a
  few **ULP** (``np.einsum`` uses SIMD pairwise summation the
  compiled loops do not replicate portably);
* the edge kernels check every endpoint, and the ILU kernels every
  column of A, against ``[0, n)`` and *decline* on an offending index,
  so the caller's numpy path raises what it raises without a compiled
  tier;
* no hard dependency: a missing compiler or cffi degrades every
  dispatch below to the numpy path (the functions return ``None`` /
  ``False`` and the caller runs its oracle);
* ``REPRO_KERNELS_DISABLE=1`` forces the numpy path globally.

Every dispatcher takes the *engine knob* (``"numpy"``/``"compiled"``)
and resolves it per call through :mod:`repro.kernels.capability`, so
tests can monkeypatch the capability layer to fake a bare machine.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import capability
from repro.kernels.capability import resolve_engine
from repro.kernels.cbackend import ILU_OK

__all__ = ["backend_for", "resolve_engine", "edge_scatter2", "spmv_csr",
           "spmv_bsr", "gather_spmv_bsr", "lower_solve_csr",
           "upper_solve_csr", "lower_solve_bsr", "upper_solve_bsr",
           "assemble_scatter", "rusanov_scatter", "green_gauss",
           "muscl_rusanov_scatter", "ilu_symbolic", "ilu_numeric"]

#: Block-size cap of the compiled BSR kernels (C stack buffers).
MAX_BS = 32

_BACKENDS: dict[str, object] = {}


def backend_for(engine: str):
    """The backend instance serving ``engine``, or None for numpy."""
    name = capability.resolve_engine(engine)
    if name == "numpy":
        return None
    backend = _BACKENDS.get(name)
    if backend is None:
        from repro.kernels.cbackend import load_cbackend
        backend = load_cbackend()
        if backend is None:
            # The build failed (broken toolchain) and load_cbackend
            # quarantined the reason: mark the backend broken, then
            # re-resolve without it.
            capability.mark_unavailable(name)
            return backend_for(engine)
        # lint: purity-ok (per-process backend memo: a forked worker must build its own cffi handles)
        _BACKENDS[name] = backend
    return backend


# ----------------------------------------------------------------------
# validation helpers
# ----------------------------------------------------------------------

def _f64(a: np.ndarray) -> np.ndarray | None:
    if a.dtype != np.float64:
        return None
    return np.ascontiguousarray(a)


def _factor(a: np.ndarray) -> np.ndarray | None:
    """Factor storage: float64 or float32 (Table 2's precision knob)."""
    if a.dtype not in (np.float64, np.float32):
        return None
    return np.ascontiguousarray(a)


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


# ----------------------------------------------------------------------
# dispatchers — None/False means "run the numpy oracle instead"
# ----------------------------------------------------------------------

def edge_scatter2(e0, e1, wa, wb, n, engine):
    """Fused pair of edge scatters: ``(sum_{e0==i} wa, sum_{e1==i} wb)``.

    Bitwise equal to the ``segment_sum`` pair it replaces; the caller
    combines the two accumulators (residual: a - b, timestep: a + b).
    """
    backend = backend_for(engine)
    if backend is None:
        return None
    wa = _f64(np.asarray(wa))
    wb = _f64(np.asarray(wb))
    if wa is None or wb is None or wa.shape != wb.shape:
        return None
    e0, e1 = _i64(e0), _i64(e1)
    if not e0.shape == e1.shape == wa.shape[:1]:
        return None
    return backend.edge_scatter2(e0, e1, wa, wb, int(n))


def spmv_csr(indptr, indices, data, x, engine, rows=None):
    """Scalar CSR SpMV (full or row subset); bitwise vs the oracle."""
    backend = backend_for(engine)
    if backend is None:
        return None
    data = _f64(np.asarray(data))
    x = _f64(np.asarray(x))
    if data is None or x is None:
        return None
    if rows is None:
        return backend.spmv_csr(_i64(indptr), _i64(indices), data, x)
    return backend.spmv_csr_rows(_i64(indptr), _i64(indices), data, x,
                                 _i64(rows))


def spmv_bsr(indptr, indices, data, x, nbrows, engine):
    """Block SpMV; ULP-bounded vs the einsum/segment-sum oracle."""
    backend = backend_for(engine)
    if backend is None:
        return None
    data = _f64(np.asarray(data))
    x = _f64(np.asarray(x))
    if data is None or x is None or data.shape[1] > MAX_BS:
        return None
    return backend.spmv_bsr(_i64(indptr), _i64(indices), data, x,
                            int(nbrows))


def gather_spmv_bsr(data_blocks, cols, seg, x, n_owned, engine):
    """The SPMD rank SpMV on pre-gathered block rows; ULP-bounded."""
    backend = backend_for(engine)
    if backend is None:
        return None
    data_blocks = _f64(np.asarray(data_blocks))
    x = _f64(np.asarray(x))
    if data_blocks is None or x is None or data_blocks.shape[1] > MAX_BS:
        return None
    return backend.gather_spmv_bsr(data_blocks, _i64(cols), _i64(seg), x,
                                   int(n_owned))


def lower_solve_csr(indptr, indices, data, x, engine) -> bool:
    """In-place unit-lower solve on float64 ``x``, rows in natural order
    (a topological order of any strictly lower pattern); bitwise vs the
    level-batched oracle.

    Returns True when the compiled path ran (``x`` now holds the
    solution), False when the caller must run the numpy levels loop.
    """
    backend = backend_for(engine)
    if backend is None:
        return False
    data = _factor(np.asarray(data))
    if data is None:
        return False
    backend.lower_solve_csr(_i64(indptr), _i64(indices), data, x)
    return True


def upper_solve_csr(indptr, indices, data, inv_diag, x, engine) -> bool:
    """In-place upper solve (reciprocal diagonal), rows n-1 down to 0;
    bitwise vs the oracle."""
    backend = backend_for(engine)
    if backend is None:
        return False
    data = _factor(np.asarray(data))
    inv_diag = _factor(np.asarray(inv_diag))
    if data is None or inv_diag is None or data.dtype != inv_diag.dtype:
        return False
    backend.upper_solve_csr(_i64(indptr), _i64(indices), data, inv_diag, x)
    return True


def lower_solve_bsr(indptr, indices, data, x, bs, engine) -> bool:
    """In-place block lower solve; ULP-bounded vs the einsum oracle."""
    backend = backend_for(engine)
    if backend is None or bs > MAX_BS:
        return False
    data = _factor(np.asarray(data))
    if data is None:
        return False
    backend.lower_solve_bsr(_i64(indptr), _i64(indices), data, x, int(bs))
    return True


def upper_solve_bsr(indptr, indices, data, inv_diag, x, bs, engine) -> bool:
    """In-place block upper solve; ULP-bounded vs the einsum oracle."""
    backend = backend_for(engine)
    if backend is None or bs > MAX_BS:
        return False
    data = _factor(np.asarray(data))
    inv_diag = _factor(np.asarray(inv_diag))
    if data is None or inv_diag is None or data.dtype != inv_diag.dtype:
        return False
    backend.upper_solve_bsr(_i64(indptr), _i64(indices), data, inv_diag,
                            x, int(bs))
    return True


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
    """Numeric ILU of a CSR (``data`` of shape ``(nnz,)``) or BSR
    (``(nnz, bs, bs)``) matrix on the symbolic ``pattern`` (an
    :class:`~repro.sparse.ilu.ILUPattern`): ``(l_data, u_data,
    inv_diag)`` in float64, the IKJ arithmetic of ``ilu_csr_ref`` /
    ``ilu_bsr_ref`` — bitwise for scalars, ULP-bounded for blocks.

    A zero scalar pivot raises ``ZeroDivisionError`` and a singular
    pivot block ``np.linalg.LinAlgError``, naming the row, as the numpy
    tier does.  None for the numpy path: no backend, a dtype or block
    size outside the kernel's contract, or a column index outside
    ``[0, n)`` (so the numpy path raises what it raises).
    """
    backend = backend_for(engine)
    if backend is None:
        return None
    data = _f64(np.asarray(data))
    if data is None or data.ndim not in (1, 3):
        return None
    if data.ndim == 3 and (data.shape[1] != data.shape[2]
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
        if data.ndim == 1:
            raise ZeroDivisionError(f"zero pivot in ILU at row {status}")
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


def assemble_scatter(slots, src, sign, data, engine) -> bool:
    """``data[slots] = sign * src`` blockwise into the BSR data array;
    bitwise vs the fancy-indexed assignment (sign is +-1.0)."""
    backend = backend_for(engine)
    if backend is None:
        return False
    src = _f64(np.asarray(src))
    if src is None or data.dtype != np.float64:
        return False
    backend.scatter_blocks(_i64(slots), src, sign, data)
    return True
