"""Eqs. 1-2: conflict-miss bounds versus simulated misses.

The paper bounds the SpMV x-gather's conflict misses by
``N * ceil((beta - C) / W)`` once the gather span beta exceeds the
cache capacity C.  We validate the bound against the exact simulator:
synthetic banded matrices sweep beta across the capacity, and the
simulated x-gather misses must (a) stay below the bound plus the
compulsory floor and (b) turn on at the same beta ~ C knee.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, claim
from repro.memory.cache import CacheConfig, simulate_trace
from repro.memory.trace import TraceLayout,  _bases
from repro.perfmodel.spmv_model import conflict_miss_bound
from repro.sparse.csr import CSRMatrix

__all__ = ["run_eq_bounds", "check_eq_bounds", "banded_matrix",
           "x_gather_trace", "storage_roundoff_bound"]


def storage_roundoff_bound(abs_ax: np.ndarray, row_nnz: np.ndarray | int,
                           storage_dtype,
                           compute_dtype=np.float64) -> np.ndarray:
    """Componentwise forward-error bound for ``y = A x`` when ``A`` is
    *stored* at reduced precision but *computed* at full precision.

    Rounding each stored entry perturbs it by at most
    ``0.5 * eps_storage`` relatively, and the length-``row_nnz`` dot
    product accumulates at most ``row_nnz * eps_compute`` relative
    error (standard Higham-style bound, constants dropped), so

        |y_tier - y_exact|  <=  (0.5 eps_s + row_nnz eps_c) (|A| |x|).

    ``abs_ax`` is the exact-arithmetic ``|A| @ |x|`` per scalar row and
    ``row_nnz`` the scalar nonzeros per row (array or scalar).  This is
    the acceptance bound of every reduced-precision tier: fp32 storage
    must land under it, which pins the error to the storage rounding
    rather than any kernel defect.
    """
    eps_s = float(np.finfo(storage_dtype).eps)
    eps_c = float(np.finfo(compute_dtype).eps)
    return (0.5 * eps_s + np.asarray(row_nnz) * eps_c) * abs_ax


def banded_matrix(n: int, bandwidth: int, nnz_per_row: int,
                  seed: int = 0) -> CSRMatrix:
    """Random matrix whose row gathers span exactly ``bandwidth``."""
    rng = np.random.default_rng(seed)
    rows = []
    cols = []
    for i in range(n):
        lo = max(0, min(i - bandwidth // 2, n - bandwidth))
        hi = min(n, lo + bandwidth)
        pick = rng.choice(np.arange(lo, hi),
                          size=min(nnz_per_row, hi - lo), replace=False)
        pick = np.union1d(pick, [i])
        rows.extend([i] * pick.size)
        cols.extend(pick.tolist())
    vals = rng.random(len(rows))
    return CSRMatrix.from_coo(np.array(rows), np.array(cols), vals, (n, n))


def x_gather_trace(a: CSRMatrix, layout: TraceLayout | None = None
                   ) -> np.ndarray:
    """Only the x-gather addresses of an SpMV (what Eqs. 1-2 bound)."""
    lay = layout or TraceLayout()
    (base_x,) = _bases([a.ncols * lay.value_bytes])
    return base_x + lay.value_bytes * a.indices


def run_eq_bounds(*, n: int = 4096, nnz_per_row: int = 12,
                  cache: CacheConfig | None = None,
                  bandwidths=(256, 512, 1024, 2048, 4096),
                  seed: int = 0) -> ExperimentResult:
    """Sweep the gather span beta across the cache capacity."""
    cache = cache or CacheConfig("L", 8 * 1024, 32, 2)   # 1024 words
    result = ExperimentResult(
        name=f"Eq. 1/2 bound validation (C={cache.capacity_words} words, "
             f"W={cache.line_words} words)",
        headers=["beta (words)", "Simulated x misses", "Compulsory",
                 "Eq. bound", "Bound + compulsory >= sim"],
    )
    for beta in bandwidths:
        a = banded_matrix(n, beta, nnz_per_row, seed=seed)
        trace = x_gather_trace(a)
        c = simulate_trace(trace, cache)
        compulsory = int(np.unique(trace // cache.line_bytes).size)
        bound = conflict_miss_bound(n, beta, cache)
        ok = c.misses <= bound + compulsory
        result.rows.append([beta, c.misses, compulsory, int(bound), ok])
    return result


def check_eq_bounds(result: ExperimentResult) -> None:
    sim, comp = result.column("Simulated x misses"), result.column("Compulsory")
    claim(all(result.column("Bound + compulsory >= sim")), "the bound holds")
    for b, s, c, bd in zip(result.column("beta (words)"), sim, comp,
                           result.column("Eq. bound")):
        # compulsory misses only inside the cache, conflicts past it
        claim(s == c if bd == 0 else s > c, f"the knee sits at beta={b}")
    conflict = [s - c for s, c in zip(sim, comp)]
    claim(conflict == sorted(conflict), "conflicts grow with the span")
