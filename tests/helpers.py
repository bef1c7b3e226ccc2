"""Test-side fixtures and tolerances that no artefact, example or
benchmark needs: a problem with a known exact solution and its
all-farfield boundary, the tests' small transonic bump, the dual
mesh's closure defect, the roundoff bound of reduced-precision
storage, dense <-> CSR conversion, and a graph's envelope profile
under an ordering."""

import numpy as np
import pytest

from repro.euler import (BoundaryCondition, CompressibleEuler, FlowProblem,
                         IncompressibleEuler, classify_box_boundary,
                         compressible_freestream, incompressible_freestream,
                         problems, transonic_bump_problem)
from repro.graph import graph_from_edges
from repro.mesh import box_mesh, compute_dual_metrics
from repro.sparse import CSRMatrix


def duct_problem(n=5, *, compressible=False, jitter=0.25, second_order=True,
                 seed=0):
    """All-farfield box with uniform flow: freestream is an exact
    discrete steady state (the discrete-exactness test case)."""
    mesh = box_mesh(n, n, n, jitter=jitter, seed=seed, name=f"duct{n}")
    dual = compute_dual_metrics(mesh)
    bc = farfield_boundary(mesh, dual)
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


def farfield_boundary(mesh, dual):
    """A box mesh's boundary with the wall patch farfield too: the
    uniform-flow test case."""
    bc = classify_box_boundary(mesh, dual)
    return BoundaryCondition(bc.vertices, bc.normals, np.full_like(
        bc.kinds, BoundaryCondition.FARFIELD))


def small_bump(**kw):
    """The transonic bump at the tests' 13 x 4 x 7 vertices."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "_BUMP_NX", 13)
        return transonic_bump_problem(ny=4, nz=7, **kw)


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


def relabelled(graph, perm):
    """``graph`` under the ordering ``perm`` (new -> old)."""
    inv = np.empty(graph.num_vertices, dtype=np.int64)
    inv[np.asarray(perm, dtype=np.int64)] = np.arange(graph.num_vertices)
    return graph_from_edges(graph.num_vertices, inv[graph.edge_list()])


def envelope_profile(graph):
    """Envelope profile: sum over rows of (row index - min column index),
    the finer locality metric RCM is designed to shrink."""
    n = graph.num_vertices
    edges = graph.edge_list()
    if edges.size == 0:
        return 0
    rows = np.maximum(edges[:, 0], edges[:, 1])
    cols = np.minimum(edges[:, 0], edges[:, 1])
    first = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first, rows, cols)
    present = first < np.iinfo(np.int64).max
    idx = np.arange(n, dtype=np.int64)
    return int((idx[present] - first[present]).sum())
