"""Shared experiment plumbing: scaled machines, canned runs, result bags."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core import NKSSolver, SolverConfig
from repro.core.config import KrylovConfig, PreconditionerConfig
from repro.core.reporting import format_table
from repro.euler.problems import FlowProblem, wing_problem
from repro.memory import MemoryHierarchy
from repro.perfmodel.machines import MachineSpec
from repro.solvers.ptc import PTCConfig
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["ExperimentResult", "scaled_hierarchy", "default_wing",
           "measured_linear_iterations", "solve_with_partition"]


@dataclass
class ExperimentResult:
    """A regenerated table: headers + rows + free-form notes."""

    name: str
    headers: Sequence[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def table(self) -> str:
        body = format_table(self.headers, self.rows, title=self.name)
        if self.notes:
            body += "\n" + "\n".join("  # " + n for n in self.notes)
        return body

    def column(self, header: str) -> list:
        i = list(self.headers).index(header)
        return [r[i] for r in self.rows]


def scaled_hierarchy(machine: MachineSpec, factor: float,
                     engine: str = "fast") -> MemoryHierarchy:
    """A fresh memory hierarchy with the machine's caches scaled down by
    ``factor`` (meshes are scaled down by roughly the same factor, so
    the cache-to-working-set ratio — which controls miss behaviour —
    is preserved).  ``factor=1`` uses the real geometry; ``engine``
    picks the trace simulator (fast vectorised vs reference oracle)."""
    m = machine if factor == 1 else machine.scaled_caches(factor)
    return MemoryHierarchy(m.l1, m.l2, m.tlb, engine=engine)


def default_wing(size: str = "small", **kw) -> FlowProblem:
    """The standard scaled M6 stand-ins used across experiments."""
    dims = {
        "tiny": (7, 5, 4),       # 140 vertices   (unit tests)
        "small": (11, 7, 5),     # 385 vertices   (fast benches)
        "medium": (16, 10, 8),   # 1280 vertices  (scalability benches)
        "large": (22, 14, 10),   # 3080 vertices  (layout benches)
    }[size]
    return wing_problem(*dims, **kw)


def solve_with_partition(prob: FlowProblem, nparts: int, *,
                         partitioner: str = "kway",
                         labels: np.ndarray | None = None,
                         fill_level: int = 1, overlap: int = 0,
                         max_steps: int = 8, cfl0: float = 10.0,
                         jacobian_lag: int = 2,
                         krylov_rtol: float = 1e-2,
                         krylov_maxiter: int = 40,
                         krylov_restart: int = 20,
                         matrix_free: bool = True,
                         target_reduction: float = 1e-10, seed: int = 0,
                         engine: str = "numpy", policy="fp64",
                         executor: str = "local",
                         nworkers: int | None = None,
                         recorder=NULL_RECORDER):
    """One NKS run with a p-way preconditioner partition.

    ``max_steps`` is deliberately small and ``target_reduction``
    unreachable: scalability experiments compare a *fixed* number of
    pseudo-timesteps across partition counts, so iteration counts are
    directly comparable.  ``executor``/``nworkers`` pick the SPMD
    backend and ``recorder`` instruments the solve (the measured
    Table 3).
    """
    cfg = SolverConfig(
        ptc=PTCConfig(cfl0=cfl0),
        max_steps=max_steps,
        target_reduction=target_reduction,
        matrix_free=matrix_free,
        jacobian_lag=jacobian_lag,
        krylov=KrylovConfig(rtol=krylov_rtol,
                            max_iterations=krylov_maxiter,
                            restart=krylov_restart),
        precond=PreconditionerConfig(
            nparts=nparts, fill_level=fill_level, overlap=overlap,
            partitioner="given" if labels is not None else partitioner,
            labels=labels),
        seed=seed,
        engine=engine,
        policy=policy,
        executor=executor,
        nworkers=nworkers,
    )
    solver = NKSSolver(prob.disc, cfg, recorder=recorder)
    report = solver.solve(prob.initial.flat())
    return solver, report


def measured_linear_iterations(prob: FlowProblem, nparts: int, **kw
                               ) -> tuple[list[int], np.ndarray]:
    """Per-step linear iteration counts of a real run with ``nparts``
    subdomain blocks, plus the partition labels used.  This is the
    measured eta_alg input of the parallel simulations."""
    solver, report = solve_with_partition(prob, nparts, **kw)
    return [s.linear_iterations for s in report.steps], solver.partition_labels
