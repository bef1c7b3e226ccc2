"""Every x86-64 level the C library can be built for computes the same
bits.

The solver's library is compiled for the widest level this CPU offers
(``-march=x86-64-v4`` or ``-v3``, else the compiler's default).  Here
the source is built once per level the CPU runs — into the shared
kernel cache, where the flags key each build — and every build must
give the same L, U and pivot inverses, the same two block solves and
the same three SpMVs (global, per rank, the whole seq matvec), bit for
bit, on drawn block matrices, and the same residual passes — the
Green-Gauss gradients, the first-order Rusanov scatter and the fused
second-order pass, every limiter and both flux families — on drawn
box meshes, and the same k-way partition of a wing: the level changes
only the speed.  Each build is run through the ``repro.kernels``
functions, as the solver runs its own: the engine knob resolves to it
while it is the capability memo, and ``trisolver`` takes it as its
backend.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.euler.fluxes import GAMMA
from repro.euler.reconstruction import reconstruct_edge_states
from repro.kernels import capability, cbackend
from repro.mesh.dualmesh import compute_dual_metrics
from repro.mesh.tetgen import box_mesh
from repro.parallel.spmd import SPMDLayout
from repro.partition import kway_partition
from repro.sparse.bsr import BSRMatrix
from repro.sparse.ilu import ilu_symbolic

#: the levels above the compiler's default, narrowest first
LEVELS = ("x86-64-v3", "x86-64-v4")


@pytest.fixture(scope="module")
def builds():
    """``{isa: backend}``: the compiler's default and every level up to
    the one the solver's library was built for."""
    if capability.resolve_engine("compiled") != "c":
        pytest.skip("no compiled backend (cffi + cc)")
    bound = kernels.backend_for("compiled")
    if bound.isa not in LEVELS:
        pytest.skip(f"this CPU runs only the {bound.isa} build")
    out = {}
    for isa in ("default",) + LEVELS[:LEVELS.index(bound.isa) + 1]:
        flags = cbackend.BASE_ARGS + (() if isa == "default"
                                      else (f"-march={isa}",))
        backend = cbackend.load_cbackend(flags)
        assert backend is not None and backend.isa == isa
        out[isa] = backend
    return out


def _dominant(nb, bs, density, seed):
    """A random block sparsity with the diagonal, whose diagonal blocks
    outweigh the rest of their row."""
    rng = np.random.default_rng(seed)
    mask = rng.random((nb, nb)) < density
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    blocks = rng.standard_normal((rows.size, bs, bs))
    blocks[rows == cols] += bs * (mask.sum(axis=1).max() + 1) * np.eye(bs)
    indptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nb), out=indptr[1:])
    return BSRMatrix(indptr=indptr, indices=cols, data=blocks, nbcols=nb)


@contextmanager
def _serving(backend):
    """``engine="compiled"`` resolves to ``backend`` inside the block."""
    saved = capability._memo
    capability._memo = backend
    try:
        yield
    finally:
        capability._memo = saved


def _factor_and_solve(backend, a, pattern, dtype, b):
    """The bytes of L, U, the pivot inverses and both block solves of
    ``b`` on factors stored as ``dtype``."""
    with _serving(backend):
        factors = kernels.ilu_numeric(pattern, a.indptr, a.indices, a.data,
                                      "compiled")
    l_data, u_data, inv_diag = (f.astype(dtype) for f in factors)
    x = b.copy()
    assert kernels.trisolver(pattern.l_indptr, pattern.l_indices, l_data,
                             None, a.bs, backend)(x)
    y = x.copy()
    assert kernels.trisolver(pattern.u_indptr, pattern.u_indices, u_data,
                             inv_diag, a.bs, backend)(y)
    return [np.ascontiguousarray(v).tobytes() for v in (*factors, x, y)]


@settings(deadline=None, max_examples=40)
@given(bs=st.sampled_from((2, 3, 4, 5, 6, 9, 12)), f32=st.booleans(),
       nb=st.integers(2, 24), density=st.floats(0.1, 0.5),
       fill=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_every_level_computes_the_same_bits(builds, bs, f32, nb, density,
                                            fill, seed):
    a = _dominant(nb, bs, density, seed)
    pattern = ilu_symbolic(a.indptr, a.indices, fill)
    b = np.random.default_rng(seed).standard_normal(nb * bs)
    dtype = np.float32 if f32 else np.float64
    got = {isa: _factor_and_solve(backend, a, pattern, dtype, b)
           for isa, backend in builds.items()}
    want = got.pop("default")
    for isa, out in got.items():
        for what, g, w in zip(("L", "U", "inv_diag", "lower", "upper"),
                              out, want):
            assert g == w, f"{isa} differs from default in {what}"


def _spmvs(backend, a, layout, x):
    """The bytes of the global SpMV, every rank's SpMV and the seq
    matvec of ``x`` (float64) through ``layout``; within one build the
    three agree bit for bit."""
    plan = layout.plan
    gather = plan.gather(a)
    with _serving(backend):
        whole = kernels.spmv_bsr(a.indptr, a.indices, a.data, x, a.nbrows,
                                 a.nbcols, "compiled")
        buf = plan.distribute(x, a.bs)
        for r in plan.receivers:
            plan.refresh_rank(buf, r)
        ranks = np.empty_like(whole).reshape(-1, a.bs)
        for rd in layout.ranks:
            flat, cols, seg = gather.rank(rd.rank)
            ranks[rd.owned] = kernels.gather_spmv_bsr(
                a.data[flat], cols, seg, plan.local(buf, rd.rank).ravel(),
                rd.n_owned, "compiled")
        seq, _ = kernels.seq_matvec_bsr(
            plan.home, plan.row_off, plan.ghost_off, plan.ghost_src,
            *gather, a.data, x, "compiled")
    assert np.array_equal(ranks.ravel(), whole)
    assert np.array_equal(seq, whole)
    return whole.tobytes()


@settings(deadline=None, max_examples=40)
@given(bs=st.sampled_from((1, 2, 3, 4, 5, 6, 9, 12)), f32=st.booleans(),
       nb=st.integers(2, 24), density=st.floats(0.1, 0.5),
       nparts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_every_level_computes_the_same_spmv_bits(builds, bs, f32, nb,
                                                 density, nparts, seed):
    """An fp32 ``x`` enters the kernels widened, as the dispatchers
    widen it."""
    a = _dominant(nb, bs, density, seed)
    rng = np.random.default_rng(seed)
    rows = a.row_of
    off = rows != a.indices
    edges = np.unique(np.sort(np.stack([rows[off], a.indices[off]], 1), 1),
                      axis=0).reshape(-1, 2)
    labels = rng.permutation(np.arange(nb) % nparts)
    layout = SPMDLayout.build(edges, labels)
    x = rng.standard_normal(nb * bs)
    if f32:
        x = x.astype(np.float32).astype(np.float64)
    got = {isa: _spmvs(backend, a, layout, x)
           for isa, backend in builds.items()}
    want = got.pop("default")
    for isa, out in got.items():
        assert out == want, f"{isa} differs from default in the SpMVs"


#: flux family -> (its parameter, a freestream state)
FAMILIES = {"incompressible": (10.0, [0.25, 1.0, 0.125, 0.0625]),
            "compressible": (GAMMA, [1.0, 0.5, 0.125, 0.0625, 2.5])}


def _residual_passes(backend, mesh, dual, q, limiter, family):
    """The bytes of the gradient pass, the first-order scatter of the
    (numpy) reconstructed edge states and the fused second-order pass
    of ``q``."""
    param = FAMILIES[family][0]
    e0, e1 = mesh.edge_endpoints()
    s, n = dual.edge_normals, mesh.num_vertices
    with _serving(backend):
        grad = kernels.green_gauss(e0, e1, q, s, dual.bnd_vertex_normals,
                                   dual.dual_volumes, "compiled")
        ql, qr = reconstruct_edge_states(mesh, dual, q, grad, limiter)
        first = kernels.rusanov_scatter(e0, e1, ql, qr, s, n, family,
                                        param, "compiled")
        second = kernels.muscl_rusanov_scatter(
            e0, e1, q, grad, mesh.coords, s, limiter, family, param,
            "compiled")
    return [a.tobytes() for a in (grad, *first, *second)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("limiter", ("none", "van_albada", "minmod"))
@settings(deadline=None, max_examples=8)
@given(nx=st.integers(2, 6), ny=st.integers(2, 6), nz=st.integers(2, 5),
       seed=st.integers(0, 2**32 - 1))
def test_every_level_computes_the_same_residual_bits(builds, limiter,
                                                     family, nx, ny, nz,
                                                     seed):
    """A noisy state on a jittered box: slopes of either sign and
    size, so every limiter takes both sides of its select, and edge
    counts from a part of one block of the flux kernels to several."""
    mesh = box_mesh(nx, ny, nz, jitter=0.2, seed=seed % 2**16)
    dual = compute_dual_metrics(mesh)
    base = np.array(FAMILIES[family][1])
    rng = np.random.default_rng(seed)
    q = base + 0.03 * rng.standard_normal((mesh.num_vertices, base.size))
    got = {isa: _residual_passes(backend, mesh, dual, q, limiter, family)
           for isa, backend in builds.items()}
    want = got.pop("default")
    for isa, out in got.items():
        for what, g, w in zip(("gradients", "first-order a",
                               "first-order b", "second-order a",
                               "second-order b"), out, want):
            assert g == w, f"{isa} differs from default in the {what}"


@pytest.mark.parametrize("nparts", (2, 3, 8, 64))
def test_every_level_gives_the_same_partition(builds, nparts):
    """``kway_partition``'s C phases at every level: the medium wing's
    labels equal the numpy partitioner's, seeds 0 and 1."""
    from repro.experiments.common import default_wing
    graph = default_wing("medium").mesh.vertex_graph()
    for seed in (0, 1):
        want = kway_partition(graph, nparts, seed=seed)
        for isa, backend in builds.items():
            with _serving(backend):
                got = kway_partition(graph, nparts, seed=seed,
                                     engine="compiled")
            assert np.array_equal(got, want), f"{isa}, seed {seed}"
