"""Per-layer numbers: rows computed from the span list, plus the few
layer-level measurements taken by calling a layer directly.

Names are ``<repo module>.<what>``; ``_s`` is inclusive seconds inside
the traced solves unless it says self, ``_calls`` an exact count.  The
``*.self_s`` rows are the layer table: every span below ``core.solve``
books its self time to its module, so the rows sum to ``core.solve_s``
and what no shim covers is ``core.self_s`` (``core.unattributed_frac``
of the total).
"""

from __future__ import annotations

import time

import numpy as np

import hostfacts
from spans import subtree_ids, totals_by_name

__all__ = ["span_metrics", "stream_triad", "stream_fractions",
           "recorder_overhead", "spmd_microbench"]

MODULES = ("core", "euler", "precond", "sparse", "solvers", "parallel")


def span_metrics(rec, gmres_results, residual_flops: int) -> dict:
    """Layer rows from the spans under the traced ``core.solve`` roots."""
    spans = rec.to_dicts()
    roots = [s["id"] for s in spans if s["name"] == "core.solve"]
    tot = totals_by_name(spans, subtree_ids(spans, roots))
    ctor = totals_by_name(spans, subtree_ids(
        spans, [s["id"] for s in spans if s["name"] == "core.ctor"]))

    def sec(name):
        return tot[name]["s"] if name in tot else 0.0

    def calls(name):
        return tot[name]["calls"] if name in tot else 0

    def self_s(name):
        return tot[name]["self_s"] if name in tot else 0.0

    solve_s = sec("core.solve")
    m = {
        "core.ctor_s": ctor["core.ctor"]["s"],
        "core.solve_s": solve_s,
        "partition.kway_s": (ctor["partition.kway"]["s"]
                             if "partition.kway" in ctor else 0.0),
        "euler.residual_s": sec("euler.residual"),
        "euler.residual_calls": calls("euler.residual"),
        "euler.reconstruct_s": sec("euler.reconstruct"),
        "euler.jacobian_s": sec("euler.jacobian"),
        "euler.jacobian_calls": calls("euler.jacobian"),
        "precond.setup_s": sec("precond.setup"),
        "precond.setup_calls": calls("precond.setup"),
        "precond.apply_s": sec("precond.apply"),
        "precond.apply_calls": calls("precond.apply"),
        "sparse.ilu_symbolic_s": sec("sparse.ilu_symbolic"),
        "sparse.ilu_symbolic_calls": calls("sparse.ilu_symbolic"),
        "sparse.schedule_compile_s": sec("sparse.schedule_compile"),
        # numeric factorisation alone: the symbolic phase and the
        # schedule compile nest inside the first call and are children
        "sparse.ilu_numeric_s": self_s("sparse.ilu_numeric"),
        "sparse.ilu_numeric_calls": calls("sparse.ilu_numeric"),
        "sparse.trisolve_s": sec("sparse.trisolve"),
        "sparse.trisolve_calls": calls("sparse.trisolve"),
        "sparse.trisolve_model_bytes":
            rec.counters.get("sparse.trisolve_model_bytes", 0.0),
        "sparse.spmv_s": sec("sparse.spmv"),
        "sparse.spmv_calls": calls("sparse.spmv"),
        "sparse.spmv_model_bytes":
            rec.counters.get("sparse.spmv_model_bytes", 0.0),
        "solvers.gmres_s": sec("solvers.gmres"),
        # orthogonalisation + interpreter: GMRES minus what it calls
        "solvers.gmres_self_s": self_s("solvers.gmres"),
        "solvers.linear_its": sum(r.iterations for r in gmres_results),
        "parallel.residual_s": sec("parallel.residual"),
        "parallel.matvec_s": sec("parallel.matvec"),
        "parallel.matvec_calls": calls("parallel.matvec"),
    }
    # one residual evaluation heads every pseudo-timestep: the ones
    # called by core.solve itself count the steps
    root_set = set(roots)
    m["solvers.steps"] = sum(
        1 for s in spans if s["parent"] in root_set
        and s["name"] in ("euler.residual", "parallel.residual"))
    if m["euler.residual_s"] > 0:
        # computed: disc.residual_flops() x calls, not a hardware count
        m["euler.residual_mflops"] = (residual_flops
                                      * m["euler.residual_calls"]
                                      / m["euler.residual_s"] / 1e6)
    by_module = dict.fromkeys(MODULES, 0.0)
    for name, row in tot.items():
        by_module[name.split(".")[0]] += row["self_s"]
    for mod, t in by_module.items():
        m[f"{mod}.self_s"] = t
    m["core.unattributed_frac"] = (by_module["core"] / solve_s
                                   if solve_s else 0.0)
    return m


def stream_triad(small: bool = False) -> dict:
    """STREAM triad of this host by ``perfmodel.measure_stream_triad``,
    on arrays of 4x the last-level cache when RAM allows (the triad
    holds four such arrays at once), else on what fits — then
    ``perfmodel.stream_in_cache`` is 1.  ``small`` (the smoke run)
    always takes 32 MiB arrays."""
    from repro.perfmodel.stream import measure_stream_triad

    llc = max(hostfacts.cache_bytes().values(), default=32 << 20)
    want = 4 * llc
    # four arrays at once, plus headroom
    fits = 0 if small else hostfacts.meminfo_bytes("MemAvailable") // 6
    array_bytes = min(want, max(fits, 32 << 20))
    result = measure_stream_triad(n=array_bytes // 8, repeats=2)
    return {"perfmodel.stream_triad_gbs": result.triad / 1e9,
            "perfmodel.stream_array_mib": array_bytes / 2**20,
            "perfmodel.llc_mib": llc / 2**20,
            "perfmodel.stream_in_cache": float(array_bytes < want)}


def stream_fractions(m: dict) -> dict:
    """Model bytes / busy seconds / triad for the bandwidth-bound rows:
    how far each is from the paper's traffic-over-STREAM prediction."""
    triad = m["perfmodel.stream_triad_gbs"] * 1e9
    out = {}
    for row in ("sparse.trisolve", "sparse.spmv"):
        busy = m[f"{row}_s"]
        out[f"{row}_stream_frac"] = (m[f"{row}_model_bytes"] / busy / triad
                                     if busy > 0 and triad > 0 else 0.0)
    return out


def recorder_overhead(make_solver, q0, pairs: int = 3) -> float:
    """``TraceRecorder()`` against the null recorder on one solve:
    median over ``pairs`` alternating pairs of (enabled / null) - 1."""
    from repro.telemetry.recorder import NULL_RECORDER, TraceRecorder

    def timed(recorder):
        t0 = time.perf_counter()
        make_solver(recorder).solve(q0)
        return time.perf_counter() - t0

    timed(NULL_RECORDER)                     # fill memos first
    ratios = []
    for i in range(pairs):
        if i % 2:
            on = timed(TraceRecorder())
            off = timed(NULL_RECORDER)
        else:
            off = timed(NULL_RECORDER)
            on = timed(TraceRecorder())
        ratios.append(on / off)
    return float(np.median(ratios)) - 1.0


def spmd_microbench(prob, labels, repeats: int = 20) -> dict:
    """The SPMD kernels called directly on one wing, outside any solve:
    the seq matvec, and the proc matvec / residual on a 2-worker pool
    that is started here and closed explicitly."""
    from repro.parallel.procpool import ProcPool
    from repro.parallel.spmd import (GhostExchange, SPMDLayout,
                                     distributed_matvec,
                                     distributed_residual)

    disc = prob.disc
    q = prob.initial.flat()
    layout = SPMDLayout.build(disc.mesh.edges, labels)
    jac = disc.shifted_jacobian(q, 10.0)
    x = np.random.default_rng(0).standard_normal(q.size)

    def per_call_ms(fn):
        fn()
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - t0) / repeats * 1e3

    ex = GhostExchange(layout, disc.ncomp)
    out = {
        # computed from the layout: one message per (receiver, owner)
        # pair and one payload per ghost copy, as GhostExchange books it
        "parallel.ghost_msgs_per_matvec": ex.pair_count,
        "parallel.ghost_bytes_per_matvec": ex.ghost_rows * disc.ncomp * 8,
        "parallel.seq_matvec_ms": per_call_ms(
            lambda: distributed_matvec(jac, layout, x, executor="seq")),
    }
    t0 = time.perf_counter()
    pool = ProcPool(layout, disc, nworkers=2)
    try:
        out["parallel.proc_pool_start_s"] = time.perf_counter() - t0
        out["parallel.proc_matvec_ms"] = per_call_ms(
            lambda: distributed_matvec(jac, layout, x, executor=pool))
        out["parallel.proc_residual_ms"] = per_call_ms(
            lambda: distributed_residual(disc, layout, q, executor=pool))
    finally:
        pool.close()
    return out
