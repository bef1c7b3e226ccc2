"""Test-side fixtures and tolerances that no artefact, example or
benchmark needs: a problem with a known exact solution, the dual
mesh's closure defect, the roundoff bound of reduced-precision
storage, and dense <-> CSR conversion."""

import numpy as np

from repro.euler import (CompressibleEuler, FlowProblem, IncompressibleEuler,
                         classify_box_boundary, compressible_freestream,
                         incompressible_freestream)
from repro.mesh import box_mesh, compute_dual_metrics
from repro.sparse import CSRMatrix


def duct_problem(n=5, *, compressible=False, jitter=0.25, second_order=True,
                 seed=0):
    """All-farfield box with uniform flow: freestream is an exact
    discrete steady state (the discrete-exactness test case)."""
    mesh = box_mesh(n, n, n, jitter=jitter, seed=seed, name=f"duct{n}")
    dual = compute_dual_metrics(mesh)
    bc = classify_box_boundary(mesh, dual, wall_region=None)
    nv = mesh.num_vertices
    if compressible:
        fs = compressible_freestream(nv, mach=0.4, alpha_deg=0.0)
        disc = CompressibleEuler(mesh, bc, dual, farfield=fs,
                                 second_order=second_order)
    else:
        fs = incompressible_freestream(nv, alpha_deg=0.0)
        disc = IncompressibleEuler(mesh, bc, dual, farfield=fs,
                                   second_order=second_order)
    return FlowProblem(mesh=mesh, disc=disc, initial=fs,
                       name=f"duct-{'comp' if compressible else 'incomp'}-{nv}v")


def closure_defect(dual, edges):
    """Per-vertex closed-surface defect of the median dual (~0): each
    vertex's edge normals plus its boundary normal sum to zero."""
    acc = np.zeros((dual.dual_volumes.shape[0], 3))
    np.add.at(acc, edges[:, 0], dual.edge_normals)
    np.add.at(acc, edges[:, 1], -dual.edge_normals)
    acc += dual.bnd_vertex_normals
    return np.linalg.norm(acc, axis=1)


def storage_roundoff_bound(abs_ax, row_nnz, storage_dtype,
                           compute_dtype=np.float64):
    """Componentwise forward-error bound for ``y = A x`` when ``A`` is
    *stored* at reduced precision but *computed* at full precision.

    Rounding each stored entry perturbs it by at most
    ``0.5 * eps_storage`` relatively, and the length-``row_nnz`` dot
    product accumulates at most ``row_nnz * eps_compute`` relative
    error (standard Higham-style bound, constants dropped), so

        |y_tier - y_exact|  <=  (0.5 eps_s + row_nnz eps_c) (|A| |x|).

    ``abs_ax`` is the exact-arithmetic ``|A| @ |x|`` per scalar row and
    ``row_nnz`` the scalar nonzeros per row (array or scalar).  fp32
    storage must land under it, which pins the error to the storage
    rounding rather than any kernel defect.
    """
    eps_s = float(np.finfo(storage_dtype).eps)
    eps_c = float(np.finfo(compute_dtype).eps)
    return (0.5 * eps_s + np.asarray(row_nnz) * eps_c) * abs_ax


def csr_from_dense(a, tol=0.0):
    """The CSR matrix of the entries of ``a`` above ``tol`` in size."""
    a = np.asarray(a, dtype=np.float64)
    rows, cols = np.nonzero(np.abs(a) > tol)
    return CSRMatrix.from_coo(rows, cols, a[rows, cols], a.shape)


def csr_to_dense(m):
    out = np.zeros(m.shape, dtype=m.data.dtype)
    out[m.row_of, m.indices] = m.data
    return out
