"""Table 3 (and Fig. 1): scalability bottlenecks on ASCI Red.

Hybrid measurement/model per DESIGN.md: the iteration growth with
subdomain count is *measured* by really running the NKS solver with p
preconditioner blocks; per-rank times, scatters, reductions, and
implicit-synchronisation waits are *modelled* on the ASCI Red
parameter sheet from the real partition's work/ghost volumes.

A second, fully **measured** mode (:func:`run_table3_measured`)
replaces the machine model with telemetry: one real
:class:`~repro.core.NKSSolver` solve per processor count runs on the
SPMD kernels under a :class:`repro.telemetry.TraceRecorder`, and the
efficiency decomposition eta_overall = eta_alg x eta_impl is computed
from that solve's own iteration count and per-rank phase times — so
the Table 3 experiment is validated against the code we actually
execute, not just against the alpha-beta model.

Scaling: the paper runs a 2.8 M-vertex mesh on 128-1024 nodes
(~2,700-22,000 vertices per node).  We shrink both mesh and node
counts by the same factor, keeping vertices-per-subdomain in a
comparable regime so the surface-to-volume communication growth and
the block-Jacobi convergence degradation operate as in the paper.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from repro.euler.problems import FlowProblem
from repro.experiments.common import (ExperimentResult, default_wing,
                                      measured_linear_iterations,
                                      solve_with_partition)
from repro.parallel.efficiency import EfficiencyRow, efficiency_decomposition
from repro.parallel.netmodel import network_from_machine
from repro.parallel.rankwork import build_rank_work
from repro.parallel.scatter import build_exchange_plan
from repro.parallel.simulate import ParallelTimeline, simulate_solve
from repro.perfmodel.machines import ASCI_RED_PPRO, MachineSpec
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.report import MeasuredRow, measured_rows
from repro.telemetry.trace import write_trace

__all__ = ["run_table3", "run_fig1", "run_table3_measured",
           "ScalabilityResult", "ScalabilityPoint",
           "MeasuredScalabilityResult", "PAPER_TABLE3"]

# Paper Table 3 rows: P -> (its, time_s, eta_overall, eta_alg, eta_impl,
#                           pct_reductions, pct_sync, pct_scatter, GB/it)
PAPER_TABLE3 = {
    128: (22, 2039, 1.00, 1.00, 1.00, 5, 4, 3, 2.0),
    256: (24, 1144, 0.89, 0.92, 0.97, 3, 6, 4, 2.8),
    512: (26, 638, 0.80, 0.85, 0.94, 3, 7, 5, 4.0),
    768: (27, 441, 0.77, 0.81, 0.95, 3, 8, 5, 4.6),
    1024: (29, 362, 0.70, 0.76, 0.93, 3, 10, 6, 5.3),
}


@dataclass
class ScalabilityPoint:
    nprocs: int
    linear_its: int
    steps_its: list[int]
    timeline: ParallelTimeline
    labels: np.ndarray
    flops_total: float = 0.0

    @property
    def time(self) -> float:
        return self.timeline.total_wall

    @property
    def gflops(self) -> float:
        return self.flops_total / max(self.time, 1e-30) / 1e9


@dataclass
class ScalabilityResult:
    problem_name: str
    machine: MachineSpec
    num_vertices: int = 0
    points: list[ScalabilityPoint] = field(default_factory=list)
    efficiency: list[EfficiencyRow] = field(default_factory=list)

    def to_table(self) -> ExperimentResult:
        res = ExperimentResult(
            name=f"Table 3 analogue ({self.problem_name} on "
                 f"{self.machine.name})",
            headers=["Procs", "Its", "Time(s)", "Speedup", "eta_ovl",
                     "eta_alg", "eta_impl", "%red", "%sync", "%scat",
                     "MB/it", "effBW MB/s"],
        )
        for pt, eff in zip(self.points, self.efficiency):
            pct = pt.timeline.category_percent()
            res.rows.append([
                pt.nprocs, pt.linear_its, round(pt.time, 3),
                round(eff.speedup, 2), round(eff.eta_overall, 2),
                round(eff.eta_alg, 2), round(eff.eta_impl, 2),
                round(pct["reductions"], 1), round(pct["implicit_sync"], 1),
                round(pct["scatter"], 1),
                round(pt.timeline.payload_per_linear_it / 1e6, 2),
                round(pt.timeline.effective_scatter_bw_per_rank() / 1e6, 2),
            ])
        return res

    def to_fig1_table(self) -> ExperimentResult:
        """Fig. 1's panels: vertices/proc and performance metrics."""
        res = ExperimentResult(
            name=f"Fig. 1 analogue ({self.problem_name} on "
                 f"{self.machine.name})",
            headers=["Procs", "Vtx/proc", "Time/step(s)", "Gflop/s",
                     "Impl. eff.", "Overall eff.", "Speedup"],
        )
        for pt, eff in zip(self.points, self.efficiency):
            res.rows.append([
                pt.nprocs,
                round(self.num_vertices / pt.nprocs, 1),
                round(pt.time / max(len(pt.steps_its), 1), 4),
                round(pt.gflops, 3),
                round(eff.eta_impl, 2),
                round(eff.eta_overall, 2),
                round(eff.speedup, 2),
            ])
        return res


def _total_flops(works, its_per_step) -> float:
    """Aggregate useful flops of the simulated run (flux + Krylov)."""
    flux = sum(w.flux_flops for w in works)
    inner = sum(w.spmv_flops + w.pcapply_flops + w.krylov_vector_flops
                for w in works)
    setup = sum(w.pcsetup_flops for w in works)
    nsteps = len(its_per_step)
    nits = sum(its_per_step)
    return 2.0 * nsteps * flux + nits * inner + nsteps * setup


@dataclass
class MeasuredScalabilityResult:
    """Measured-mode Table 3: telemetry traces + efficiency rows."""

    problem_name: str
    num_vertices: int = 0
    rows: list[MeasuredRow] = field(default_factory=list)
    traces: dict = field(default_factory=dict)   # nprocs -> TraceRecorder

    def to_table(self) -> ExperimentResult:
        res = ExperimentResult(
            name=f"Table 3 analogue, measured ({self.problem_name})",
            headers=["Procs", "Its", "Time(s)", "Speedup", "eta_ovl",
                     "eta_alg", "eta_impl", "%scat", "%red", "%wait",
                     "MB/it", "msgs"],
        )
        for r in self.rows:
            res.rows.append([
                r.nprocs, r.its, round(r.time, 4), round(r.speedup, 2),
                round(r.eta_overall, 3), round(r.eta_alg, 3),
                round(r.eta_impl, 3),
                round(r.phase_pct.get("ghost_exchange", 0.0), 1),
                round(r.phase_pct.get("orthogonalization", 0.0), 1),
                round(r.wait_pct, 1), round(r.mb_per_it, 3), r.messages,
            ])
        res.notes.append("measured: per-rank phase times recorded by "
                         "TraceRecorder from one real SPMD solve per row")
        return res


def run_table3_measured(*, procs=(2, 4, 8, 16), size: str = "small",
                        max_steps: int = 4, fill_level: int = 1,
                        seed: int = 0, prob: FlowProblem | None = None,
                        trace_dir=None, executor: str = "seq",
                        nworkers: int | None = None
                        ) -> MeasuredScalabilityResult:
    """Measured-mode Table 3: telemetry instead of the machine model.

    For each processor count, one real p-block solve is recorded:
    assembled and first-order, so every residual and every Krylov
    matvec runs on the rank-local SPMD kernels.  Its own linear
    iteration count supplies eta_alg; its per-rank phase times supply
    eta_impl and the percentage columns (``%red`` is the solve's
    ``orthogonalization`` span — where the Krylov reductions happen).
    With ``trace_dir`` set, one validated trace JSON per processor
    count is dumped there (``trace_p{p}.json``) for CI diffing.

    ``executor="proc"`` runs the rank kernels concurrently in
    ``nworkers`` worker processes over shared memory; the per-rank
    spans are then *measured inside the workers* (real concurrency,
    real waits) rather than recorded from the in-process rank loop.
    Iteration counts and traffic are identical either way.
    """
    if prob is None:
        prob = default_wing(size, seed=seed)
    # The SPMD kernels are first-order; a private first-order view of
    # the discretisation keeps the caller's problem untouched.
    disc = copy.copy(prob.disc)
    disc.second_order = False
    prob = replace(prob, disc=disc)
    runs = []
    result = MeasuredScalabilityResult(problem_name=prob.name,
                                       num_vertices=prob.mesh.num_vertices)
    for p in procs:
        rec = TraceRecorder()
        _, report = solve_with_partition(
            prob, p, fill_level=fill_level, max_steps=max_steps, seed=seed,
            matrix_free=False, executor=executor, nworkers=nworkers,
            recorder=rec)
        its = report.total_linear_iterations
        result.traces[p] = rec
        runs.append((p, its, rec))
        if trace_dir is not None:
            from pathlib import Path
            out = Path(trace_dir) / f"trace_p{p}.json"
            write_trace(out, rec, meta={
                "experiment": "table3_measured", "nprocs": p,
                "problem": prob.name, "linear_its": its,
                "max_steps": max_steps, "fill_level": fill_level,
                "executor": executor,
                "nworkers": nworkers if nworkers is not None else 0})
    result.rows = measured_rows(runs)
    return result


def run_table3(*, procs=(2, 4, 8, 16, 32), size: str = "medium",
               machine: MachineSpec = ASCI_RED_PPRO, max_steps: int = 5,
               fill_level: int = 1, seed: int = 0,
               prob: FlowProblem | None = None) -> ScalabilityResult:
    """Regenerate the Table 3 analysis at scaled processor counts."""
    if prob is None:
        prob = default_wing(size, seed=seed)
    net = network_from_machine(machine)
    result = ScalabilityResult(problem_name=prob.name, machine=machine,
                               num_vertices=prob.mesh.num_vertices)
    runs = []
    for p in procs:
        its, labels = measured_linear_iterations(
            prob, p, fill_level=fill_level, max_steps=max_steps, seed=seed)
        graph = prob.mesh.vertex_graph()
        plan = build_exchange_plan(graph, labels)
        works = build_rank_work(graph, labels, prob.disc.ncomp,
                                fill_ratio=1.0 + fill_level)
        tl = simulate_solve(works, plan, machine, net,
                            linear_its_per_step=its, refresh_every=2)
        pt = ScalabilityPoint(nprocs=p, linear_its=sum(its), steps_its=its,
                              timeline=tl, labels=labels,
                              flops_total=_total_flops(works, its))
        result.points.append(pt)
        runs.append((p, sum(its), tl.total_wall))
    result.efficiency = efficiency_decomposition(runs)
    return result


def run_fig1() -> ExperimentResult:
    """Regenerate Fig. 1: Table 3's runs taken one doubling further,
    read as the fixed-size scaling metrics."""
    return run_table3(procs=(2, 4, 8, 16, 32, 64)).to_fig1_table()
