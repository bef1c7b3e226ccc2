"""Cross-cutting hypothesis property tests over module boundaries."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import box_mesh, unit_cube_mesh
from repro.partition import kway_partition, pmetis_partition
from repro.solvers import gmres
from repro.sparse import ilu_csr
from tests.helpers import csr_from_dense


def diag_dominant(n, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    thresh = np.quantile(np.abs(a), 1 - density)
    a[np.abs(a) < thresh] = 0.0
    a += np.eye(n) * (np.abs(a).sum(axis=1).max() + 1.0)
    return a


@settings(deadline=None, max_examples=20)
@given(st.integers(4, 16), st.floats(0.1, 0.5), st.integers(0, 1000))
def test_full_fill_ilu_is_direct_solver(n, density, seed):
    """ILU(n) == LU: solve error at machine precision for any
    diagonally dominant system."""
    a = diag_dominant(n, density, seed)
    m = csr_from_dense(a)
    b = np.random.default_rng(seed).random(n)
    x = ilu_csr(m, n).solve(b)
    assert np.allclose(a @ x, b, atol=1e-8 * np.abs(b).max() + 1e-10)


@settings(deadline=None, max_examples=15)
@given(st.integers(5, 25), st.integers(0, 1000))
def test_gmres_solves_dominant_systems(n, seed):
    a = diag_dominant(n, 0.4, seed)
    b = np.random.default_rng(seed + 1).random(n)
    res = gmres(a, b, rtol=1e-10, restart=min(n, 20), maxiter=30 * n)
    assert res.converged
    assert np.allclose(a @ res.x, b, atol=1e-6)


@settings(deadline=None, max_examples=10)
@given(st.integers(2, 6), st.integers(0, 100))
def test_partitioners_deterministic(nparts, seed):
    g = unit_cube_mesh(5, jitter=0.2, seed=1).vertex_graph()
    for fn in (functools.partial(kway_partition, seed=seed),
               pmetis_partition):
        l1 = fn(g, nparts)
        l2 = fn(g, nparts)
        assert np.array_equal(l1, l2)


@settings(deadline=None, max_examples=8)
@given(st.integers(2, 5), st.integers(0, 50))
def test_distributed_residual_any_partition(nparts, seed):
    """SPMD execution equals sequential for arbitrary valid labelings
    (even fragmented random ones)."""
    from tests.helpers import duct_problem
    from repro.parallel import SPMDLayout, distributed_residual

    prob = duct_problem(4, jitter=0.2, seed=1, second_order=False)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, nparts, prob.mesh.num_vertices)
    labels[:nparts] = np.arange(nparts)      # no empty rank
    layout = SPMDLayout.build(prob.mesh.edges, labels)
    q = prob.initial.flat() + 0.1 * rng.standard_normal(
        prob.disc.num_unknowns)
    r_dist = distributed_residual(prob.disc, layout, q)
    r_seq = prob.disc.residual(q, second_order=False)
    assert np.allclose(r_dist, r_seq, atol=1e-13)


@settings(deadline=None, max_examples=10)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4))
def test_trace_deterministic_and_positive(nx, ny, nz):
    from repro.memory import flux_loop_trace

    m = box_mesh(nx, ny, nz, jitter=0.2, seed=3)
    t1 = flux_loop_trace(m.edges, m.num_vertices, 4)
    t2 = flux_loop_trace(m.edges, m.num_vertices, 4)
    assert np.array_equal(t1, t2)
    assert t1.min() > 0


@settings(deadline=None, max_examples=10)
@given(st.floats(1.0, 50.0), st.integers(1, 30))
def test_timestep_shift_positive_any_cfl(cfl, seed):
    from repro.euler import wing_problem

    prob = wing_problem(5, 4, 4, seed=seed % 3)
    rng = np.random.default_rng(seed)
    q = prob.initial.flat() + 0.05 * rng.standard_normal(
        prob.disc.num_unknowns)
    shift = prob.disc.timestep_shift(q, cfl)
    assert np.all(shift > 0)
    assert np.all(np.isfinite(shift))
