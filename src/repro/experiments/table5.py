"""Table 5: hybrid MPI/OpenMP versus pure MPI for the flux phase.

Three ways to use the second CPU of each ASCI Red node for the
(compute-bound, communication-free) flux evaluation: don't (1
process/node), split the node's subdomain across 2 OpenMP threads, or
run 2 MPI processes/node (doubling the subdomain count).  The paper's
Table 5 shows the thread split winning at scale because halving
subdomain size inflates the redundantly-computed halo edges.

Reproduction: real k-way partitions at N and 2N subdomains supply the
halo geometry; the per-edge flux cost model supplies the times.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from repro.experiments.common import ExperimentResult, claim, default_wing
from repro.parallel.hybrid import hybrid_flux_times
from repro.parallel.procpool import ProcPool
from repro.parallel.spmd import SPMDLayout, distributed_residual
from repro.partition.kway import kway_partition
from repro.perfmodel.machines import ASCI_RED_PPRO

__all__ = ["run_table5", "check_table5", "run_table5_measured",
           "PAPER_TABLE5"]

# Paper Table 5: nodes -> (hybrid 1 thr, hybrid 2 thr, mpi 1 proc,
#                          mpi 2 proc) flux-phase seconds.
PAPER_TABLE5 = {
    256: (483, 261, 456, 258),
    2560: (76, 39, 72, 45),
    3072: (66, 33, 62, 40),
}


def run_table5(*, node_counts=(4, 8, 16, 32),
               size: str = "medium") -> ExperimentResult:
    """Regenerate Table 5 at scaled node counts on the ASCI Red model."""
    prob = default_wing(size)
    machine = ASCI_RED_PPRO
    graph = prob.mesh.vertex_graph()
    result = ExperimentResult(
        name=f"Table 5 analogue ({prob.name} on {machine.name})",
        headers=["Nodes", "1 thread(s)", "2 threads(s)", "1 proc(s)",
                 "2 procs(s)", "hybrid/mpi2"],
    )
    for nodes in node_counts:
        l1 = kway_partition(graph, nodes)
        l2 = kway_partition(graph, 2 * nodes)
        cmp = hybrid_flux_times(prob.mesh.edges, l1, l2, machine,
                                ncomp=prob.disc.ncomp)
        result.rows.append([
            nodes, round(cmp.t_mpi_1, 7), round(cmp.t_hybrid_2, 7),
            round(cmp.t_mpi_1, 7), round(cmp.t_mpi_2, 7),
            round(cmp.t_hybrid_2 / cmp.t_mpi_2, 3)])
    result.notes.append("'1 thread' and '1 proc' coincide by construction "
                        "(same N-way partition on one CPU)")
    return result


def check_table5(result: ExperimentResult) -> None:
    t1, t2 = result.column("1 thread(s)"), result.column("2 threads(s)")
    m2, rel = result.column("2 procs(s)"), result.column("hybrid/mpi2")
    for a, b, c in zip(t1, t2, m2):
        claim(b < a and c < a, "both dual-CPU modes beat one CPU per node")
        claim(b >= a / 2 * 0.99, "the thread split is not better than 2x")
    # paper: MPI-2 wins or ties at 256 nodes, loses at 2560/3072 as the
    # halo redundancy grows
    claim(rel[-1] < rel[0], "the hybrid advantage grows with node count")
    claim(t2[-1] <= m2[-1] * 1.05, "threads competitive at the most nodes")


def _flux_wall(disc, labels: np.ndarray, q: np.ndarray, sweeps: int,
               *, nworkers: int | None = None) -> float:
    """Best-of-``sweeps`` wall seconds of one distributed flux phase:
    the seq rank loop, or a ``nworkers``-process pool when given."""
    layout = SPMDLayout.build(disc.mesh.edges, labels)
    with (contextlib.nullcontext("seq") if nworkers is None
          else ProcPool(layout, disc, nworkers=nworkers)) as executor:
        best = float("inf")
        distributed_residual(disc, layout, q, executor=executor)  # warm-up
        for _ in range(sweeps):
            t0 = time.perf_counter()
            distributed_residual(disc, layout, q, executor=executor)
            best = min(best, time.perf_counter() - t0)
        return best


def run_table5_measured(*, node_counts=(2, 4), sweeps: int = 5,
                        nworkers: int = 2) -> ExperimentResult:
    """Measured Table 5 analogue on the small wing: wall-clock flux
    phases, no model.

    The paper's three ways to use a node's second CPU, executed for
    real on the process-pool backend and *timed*:

    * **1 proc** — the N-way partition, sequential executor (one
      process does all the work);
    * **2 threads** — the *same* N-way partition split across
      ``nworkers`` shared-memory worker processes (the hybrid
      MPI/OpenMP analogue: identical halo volume, compute divided);
    * **2 procs** — a 2N-way partition on the same workers (the
      MPI-everywhere analogue: finer subdomains inflate the redundant
      halo edges, which is exactly the effect Table 5 attributes the
      hybrid scheme's win to — here it is measured, not modelled).
    """
    prob = default_wing("small")
    graph = prob.mesh.vertex_graph()
    disc = prob.disc
    q = np.asarray(prob.initial.flat(), dtype=np.float64)
    result = ExperimentResult(
        name=f"Table 5 analogue, measured ({prob.name}, "
             f"{nworkers} workers)",
        headers=["Nodes", "1 proc(s)", "2 threads(s)", "2 procs(s)",
                 "hybrid/mpi2"],
    )
    for nodes in node_counts:
        l1 = kway_partition(graph, nodes)
        l2 = kway_partition(graph, 2 * nodes)
        t_1p = _flux_wall(disc, l1, q, sweeps)
        t_2t = _flux_wall(disc, l1, q, sweeps, nworkers=nworkers)
        t_2p = _flux_wall(disc, l2, q, sweeps, nworkers=nworkers)
        result.rows.append([nodes, round(t_1p, 5), round(t_2t, 5),
                            round(t_2p, 5), round(t_2t / t_2p, 3)])
    result.notes.append(
        "measured: best-of-sweeps wall time of the distributed flux "
        "phase on the shm process pool; '2 procs' pays the 2N-way "
        "partition's redundant halo edges for real")
    return result
