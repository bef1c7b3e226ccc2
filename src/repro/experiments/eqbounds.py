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
from repro.memory.cache import CacheConfig
from repro.memory.fastsim import simulate_trace
from repro.memory.trace import _VALUE_BYTES, _bases
from repro.perfmodel.spmv_model import conflict_miss_bound
from repro.sparse.csr import CSRMatrix

__all__ = ["run_eq_bounds", "check_eq_bounds", "banded_matrix",
           "x_gather_trace"]


def banded_matrix(n: int, bandwidth: int, nnz_per_row: int) -> CSRMatrix:
    """Random matrix whose row gathers span exactly ``bandwidth``."""
    rng = np.random.default_rng(0)
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


def x_gather_trace(a: CSRMatrix) -> np.ndarray:
    """Only the x-gather addresses of an SpMV (what Eqs. 1-2 bound)."""
    (base_x,) = _bases([a.ncols * _VALUE_BYTES])
    return base_x + _VALUE_BYTES * a.indices


def run_eq_bounds(*, n: int = 4096,
                  bandwidths=(256, 512, 1024, 2048, 4096)) -> ExperimentResult:
    """Sweep the gather span beta of 12-entry rows across the capacity
    of a 1024-word, 2-way cache."""
    cache = CacheConfig("L", 8 * 1024, 32, 2)
    result = ExperimentResult(
        name=f"Eq. 1/2 bound validation (C={cache.capacity_words} words, "
             f"W={cache.line_words} words)",
        headers=["beta (words)", "Simulated x misses", "Compulsory",
                 "Eq. bound", "Bound + compulsory >= sim"],
    )
    for beta in bandwidths:
        a = banded_matrix(n, beta, 12)
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
