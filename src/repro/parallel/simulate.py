"""The parallel timeline simulator.

Replays an NKS solve (its per-step linear iteration counts come from a
*real* sequential run with the same subdomain partition) on a modelled
machine: per-rank phase times from the RankWork operation counts, bulk
synchronous phases whose wall time is the per-rank max, scatters and
allreduces from the alpha-beta network model.  The scatter it prices
is the layout's :class:`~repro.parallel.spmd.ScatterPlan`, the one the
executors run (:func:`scatter_counts`).

Per-rank ledgers are kept in four categories matching the paper's
Table 3 columns: compute, ghost-point scatters, global reductions, and
*implicit synchronisations* — the wait time of a rank at the end of
each bulk phase, ``max_r t_r - t_own``, caused by load imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.netmodel import NetworkModel
from repro.parallel.rankwork import RankWork
from repro.parallel.spmd import ScatterPlan
from repro.perfmodel.machines import MachineSpec
from repro.perfmodel.time_model import predict_kernel_time

__all__ = ["StepTiming", "ParallelTimeline", "scatter_counts",
           "simulate_solve"]


@dataclass
class StepTiming:
    """Average per-rank seconds of one pseudo-timestep, by category."""

    wall: float
    compute: float
    scatter: float
    reductions: float
    implicit_sync: float
    linear_its: int
    wall_linear: float = 0.0     # wall time inside the Krylov loop
    wall_pcapply: float = 0.0    # wall time in preconditioner applies


@dataclass
class ParallelTimeline:
    nranks: int
    steps: list[StepTiming] = field(default_factory=list)
    payload_per_linear_it: float = 0.0   # bytes crossing the network

    @property
    def total_wall(self) -> float:
        return sum(s.wall for s in self.steps)

    @property
    def total_linear_its(self) -> int:
        return sum(s.linear_its for s in self.steps)

    @property
    def total_linear_wall(self) -> float:
        """Wall time spent inside the Krylov loop (Table 2's
        'Linear Solve' column)."""
        return sum(s.wall_linear for s in self.steps)

    @property
    def total_pcapply_wall(self) -> float:
        """Wall time in the (memory-bandwidth-bound) triangular
        solves — the phase Table 2's fp32 storage accelerates."""
        return sum(s.wall_pcapply for s in self.steps)

    def category_totals(self) -> dict[str, float]:
        return {
            "compute": sum(s.compute for s in self.steps),
            "scatter": sum(s.scatter for s in self.steps),
            "reductions": sum(s.reductions for s in self.steps),
            "implicit_sync": sum(s.implicit_sync for s in self.steps),
        }

    def category_percent(self) -> dict[str, float]:
        wall = max(self.total_wall, 1e-30)
        return {k: 100.0 * v / wall for k, v in self.category_totals().items()}

    @property
    def total_payload(self) -> float:
        return self.payload_per_linear_it * self.total_linear_its

    def effective_scatter_bw_per_rank(self) -> float:
        """The paper's 'application level effective bandwidth per node':
        total data moved / (ranks x time in scatters)."""
        t = self.category_totals()["scatter"]
        if t <= 0:
            return 0.0
        return self.total_payload / (self.nranks * t)


def _phase(per_rank_times: np.ndarray, ledger_compute: np.ndarray,
           ledger_sync: np.ndarray) -> float:
    """Account one bulk-synchronous phase; returns its wall time."""
    wall = float(per_rank_times.max())
    ledger_compute += per_rank_times
    ledger_sync += wall - per_rank_times
    return wall


def scatter_counts(plan: ScatterPlan) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """Per-rank ``(messages, received, sent)`` of one ghost refresh:
    the distinct owners each rank hears from, the ghost copies it
    receives, and the copies it sends as an owner (each ghost row's
    source row lies in its owner's block of the flat buffer)."""
    nranks = len(plan.bounds)
    sender = np.searchsorted(plan.row_off, plan.ghost_src, side="right") - 1
    return (np.asarray(plan.pairs, dtype=np.int64), np.diff(plan.ghost_off),
            np.bincount(sender, minlength=nranks))


def simulate_solve(works: list[RankWork], plan: ScatterPlan,
                   machine: MachineSpec, net: NetworkModel, *,
                   linear_its_per_step: list[int],
                   refresh_every: int = 1) -> ParallelTimeline:
    """Simulate a full solve; see module docstring.

    ``linear_its_per_step`` carries the algorithmic content (measured
    from a real run with this partition); everything else is the
    machine model: two residual evaluations per step, two reductions
    per Krylov iteration.
    """
    nranks = len(works)
    ncomp = works[0].ncomp if works else 1
    t_flux = np.array([predict_kernel_time(w.flux_flops, w.flux_traffic,
                                           machine) for w in works])
    t_asm = np.array([predict_kernel_time(w.flux_flops * 2, w.spmv_traffic * 2,
                                          machine) for w in works])
    t_pcset = np.array([predict_kernel_time(w.pcsetup_flops, w.pcsetup_traffic,
                                            machine) for w in works])
    t_matvec = np.array([predict_kernel_time(
        w.spmv_flops + w.krylov_vector_flops,
        w.spmv_traffic + w.krylov_vector_traffic,
        machine) for w in works])
    t_pcapply = np.array([predict_kernel_time(
        w.pcapply_flops, w.pcapply_traffic, machine) for w in works])
    # One refresh moves fp64 rows; a rank's scatter time prices its
    # messages and the rows it both sends and receives.
    rowbytes = ncomp * 8
    messages, received, sent = scatter_counts(plan)
    t_scatter = np.array([net.scatter_time(
        int(messages[r]), float((sent[r] + received[r]) * rowbytes))
        for r in range(nranks)])
    t_reduce = net.allreduce_time(nranks)

    timeline = ParallelTimeline(
        nranks=nranks,
        payload_per_linear_it=float(plan.ghost_rows * rowbytes))

    for step, nits in enumerate(linear_its_per_step):
        compute = np.zeros(nranks)
        sync = np.zeros(nranks)
        scatter = np.zeros(nranks)
        reductions = np.zeros(nranks)
        wall = 0.0

        # Residual evaluations (each needs fresh ghost states).
        for _ in range(2):
            scatter += t_scatter
            wall += float(t_scatter.max())
            wall += _phase(t_flux, compute, sync)
        # One norm per step for the SER controller.
        reductions += t_reduce
        wall += t_reduce

        # Jacobian + preconditioner refresh.
        if step % refresh_every == 0:
            wall += _phase(t_asm, compute, sync)
            wall += _phase(t_pcset, compute, sync)

        # Krylov iterations: scatter, matvec, preconditioner apply,
        # then the orthogonalisation reductions.
        wall_linear = 0.0
        wall_pcapply = 0.0
        for _ in range(nits):
            scatter += t_scatter
            wall_linear += float(t_scatter.max())
            wall_linear += _phase(t_matvec, compute, sync)
            tp = _phase(t_pcapply, compute, sync)
            wall_linear += tp
            wall_pcapply += tp
            reductions += 2 * t_reduce
            wall_linear += 2 * t_reduce
        wall += wall_linear

        timeline.steps.append(StepTiming(
            wall=wall,
            compute=float(compute.mean()),
            scatter=float(scatter.mean()),
            reductions=float(reductions.mean()),
            implicit_sync=float(sync.mean()),
            linear_its=nits,
            wall_linear=wall_linear,
            wall_pcapply=wall_pcapply,
        ))
    return timeline

