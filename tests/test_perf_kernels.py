"""Property tests for the PR-1 hot-path kernels.

The schedule-driven ILU numeric refactorisation must reproduce the
row-loop reference (`ilu_csr_ref`/`ilu_bsr_ref`) on arbitrary random
patterns, `KrylovWorkspace` reuse must not perturb a single iterate,
and the loop oracles must hold their dtype so fp32 comparisons stay
meaningful.  Plus `repro.perf.git_sha`, the report attribution key.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import KrylovWorkspace, gmres, gmres_ref, solve_dtype
from repro.sparse import CSRMatrix, ilu_csr, ilu_csr_ref
from repro.sparse.bsr import BSRMatrix
from repro.sparse.ilu import compile_elimination_schedule, ilu_bsr, \
    ilu_bsr_ref, ilu_symbolic
from repro.sparse.trisolve import _row_dot
from tests.helpers import csr_from_dense, csr_to_dense


def random_csr(n, density, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    np.fill_diagonal(dense, np.abs(np.diag(dense)) + n)
    return csr_from_dense(dense)


def random_bsr(nb, bs, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((nb, nb)) < density
    np.fill_diagonal(mask, True)
    indptr = [0]
    indices: list[int] = []
    blocks = []
    for i in range(nb):
        cols = np.flatnonzero(mask[i])
        for j in cols:
            b = rng.standard_normal((bs, bs))
            if i == j:
                b += np.eye(bs) * (bs * nb)
            blocks.append(b)
        indices.extend(cols.tolist())
        indptr.append(len(indices))
    return BSRMatrix(np.array(indptr, dtype=np.int64),
                     np.array(indices, dtype=np.int64),
                     np.array(blocks), nb)


# --- schedule-driven ILU == row-loop reference ------------------------

@settings(deadline=None, max_examples=25)
@given(st.integers(5, 40), st.floats(0.05, 0.4), st.integers(0, 2),
       st.integers(0, 10_000))
def test_ilu_csr_matches_row_loop_bitwise(n, density, fill, seed):
    """The batched CSR factorisation applies the *same* update sequence
    per row as the reference, so the factors agree bitwise."""
    a = random_csr(n, density, seed)
    new, ref = ilu_csr(a, fill), ilu_csr_ref(a, fill)
    assert np.array_equal(new.l_data, ref.l_data)
    assert np.array_equal(new.u_data, ref.u_data)
    assert np.array_equal(new.inv_diag, ref.inv_diag)


@settings(deadline=None, max_examples=15)
@given(st.integers(4, 16), st.integers(2, 5), st.floats(0.1, 0.4),
       st.integers(0, 2), st.integers(0, 10_000))
def test_ilu_bsr_matches_row_loop(nb, bs, density, fill, seed):
    """Block factors agree to reassociation tolerance (np.matmul in the
    batched path vs per-block dot in the loop)."""
    a = random_bsr(nb, bs, density, seed)
    new, ref = ilu_bsr(a, fill), ilu_bsr_ref(a, fill)
    assert np.allclose(new.l_data, ref.l_data, rtol=1e-12, atol=1e-13)
    assert np.allclose(new.u_data, ref.u_data, rtol=1e-12, atol=1e-13)
    assert np.allclose(new.inv_diag, ref.inv_diag, rtol=1e-12, atol=1e-13)


def test_schedule_cached_on_pattern_and_reused():
    a = random_csr(30, 0.2, seed=3)
    factor = ilu_csr(a, 1)
    pat = factor.pattern
    sched = pat._schedule
    assert sched is not None
    ilu_csr(a, into=factor)
    assert pat._schedule is sched          # no recompilation
    b = random_csr(30, 0.2, seed=3)        # same sparsity, new arrays
    ilu_csr(b, into=factor)
    assert pat._schedule is sched


def test_schedule_zero_pivot_detected():
    dense = np.array([[2.0, 1.0], [4.0, 2.0]])   # row 2 pivot eliminates to 0
    a = csr_from_dense(dense)
    with pytest.raises(ZeroDivisionError):
        ilu_csr(a, 0)


def test_compile_schedule_stage_dsts_unique():
    """Within one wavefront stage every update target is distinct —
    the invariant that lets the numeric loop use a plain fancy-indexed
    subtraction instead of a scatter-accumulate."""
    a = random_csr(60, 0.15, seed=7)
    pat = ilu_symbolic(a.indptr, a.indices, 2)
    sched = compile_elimination_schedule(pat, a.indptr, a.indices)
    assert sched.stages
    for st_ in sched.stages:
        assert np.unique(st_.dst).size == st_.dst.size


# --- KrylovWorkspace --------------------------------------------------

def _dominant_system(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a[np.abs(a) < 0.8] = 0.0
    a += np.eye(n) * (np.abs(a).sum(axis=1).max() + 1.0)
    return a, rng.random(n)


@settings(deadline=None, max_examples=15)
@given(st.integers(8, 40), st.integers(0, 10_000))
def test_workspace_reuse_identical_iterates(n, seed):
    """Solving twice through one workspace is bitwise-identical to two
    fresh-allocation solves — reset() restores a clean slate."""
    a, b = _dominant_system(n, seed)
    ws = KrylovWorkspace()
    kw = dict(rtol=1e-10, restart=8, maxiter=10 * n)
    r1 = gmres(a, b, workspace=ws, **kw)
    allocs = ws.allocations
    r2 = gmres(a, b, workspace=ws, **kw)
    fresh = gmres(a, b, **kw)
    assert ws.allocations == allocs        # second solve reused buffers
    assert np.array_equal(r1.x, r2.x)
    assert np.array_equal(r1.x, fresh.x)
    assert r1.iterations == r2.iterations == fresh.iterations


def test_gmres_matches_pre_pr_reference_bitwise():
    a, b = _dominant_system(50, seed=11)
    for kw in (dict(restart=12, maxiter=200),
               dict(restart=7, maxiter=35, rtol=1e-12)):
        new = gmres(a, b, **kw)
        ref = gmres_ref(a, b, **kw)
        assert np.array_equal(new.x, ref.x)
        assert new.iterations == ref.iterations
        assert new.residual_norms == ref.residual_norms


def test_workspace_honors_float32():
    a, b = _dominant_system(30, seed=5)
    res = gmres(a.astype(np.float32), b.astype(np.float32),
                rtol=1e-5, restart=10, maxiter=300)
    assert res.x.dtype == np.float32
    assert np.allclose(a @ res.x.astype(np.float64), b, atol=1e-3)


def test_solve_dtype_policy():
    assert solve_dtype(np.float32) == np.float32
    assert solve_dtype(np.float64) == np.float64
    assert solve_dtype(np.int64) == np.float64     # ints promote


def test_workspace_reallocates_on_growth_only():
    ws = KrylovWorkspace()
    ws.ensure(100, 10)
    n0 = ws.allocations
    ws.ensure(100, 10)
    assert ws.allocations == n0
    ws.ensure(200, 10)
    assert ws.allocations > n0
    assert ws.nbytes() > 0


# --- dtype preservation in the loop/level kernels ---------------------

def test_row_dot_preserves_dtype():
    a = random_csr(20, 0.3, seed=2)
    for dt in (np.float32, np.float64):
        x = np.linspace(0.0, 1.0, 20).astype(dt)
        rows = np.arange(0, 20, 2, dtype=np.int64)
        out = _row_dot(a.indptr, a.indices, a.data, x, rows)
        assert out.dtype == dt
        dense = csr_to_dense(a).astype(dt)
        assert np.allclose(out, dense[rows] @ x, atol=1e-5)


def test_spmv_loop_oracle_matches_under_fp32():
    a = random_csr(25, 0.3, seed=4)
    a32 = CSRMatrix(a.indptr, a.indices, a.data.astype(np.float32), a.ncols)
    x32 = np.random.default_rng(0).random(25).astype(np.float32)
    y_loop = csr_to_dense(a32) @ x32
    y_vec = a32.matvec(x32)
    assert y_loop.dtype == np.float32
    assert y_vec.dtype == np.float32
    assert np.allclose(y_loop, y_vec, rtol=1e-5, atol=1e-6)


# --- report attribution ----------------------------------------------

def test_git_sha_attributes_this_checkout():
    """In this repo the helper must resolve HEAD; its short form is a
    prefix of the full one (the attribution key reports carry)."""
    import subprocess

    from repro.perf import git_sha

    short = git_sha()
    full = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True).stdout.strip()
    assert short and full
    assert full.startswith(short)
    assert all(c in "0123456789abcdef" for c in full)


def test_git_sha_none_outside_a_checkout(monkeypatch):
    """Outside a git checkout the key is None, not an exception."""
    import subprocess as sp

    from repro.perf import regress

    def no_git(*a, **k):
        raise OSError("git not found")

    monkeypatch.setattr(regress.subprocess, "run", no_git)
    assert regress.git_sha() is None
    monkeypatch.setattr(
        regress.subprocess, "run",
        lambda *a, **k: sp.CompletedProcess(a, 128, stdout="", stderr=""))
    assert regress.git_sha() is None
