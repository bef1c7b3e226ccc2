"""Fig. 4: k-MeTiS versus p-MeTiS partitioning on the T3E.

The paper's speedup curves (relative to 128 processors) separate at
large processor counts: the contiguity-seeking k-way partitioner wins
despite its worse load balance, because the strict-balance recursive
bisection produces disconnected subdomain pieces that act as extra
(weaker) preconditioner blocks and degrade NKS convergence.

Reproduction: both partitioners run for real at every processor count;
convergence (iterations) is measured by real solves on each partition;
times come from the T3E model; speedups are relative to the smallest
count, per partitioner.
"""

from __future__ import annotations

from repro.experiments.common import (ExperimentResult, default_wing,
                                      measured_linear_iterations)
from repro.parallel.netmodel import network_from_machine
from repro.parallel.rankwork import build_rank_work
from repro.parallel.scatter import build_exchange_plan
from repro.parallel.simulate import simulate_solve
from repro.partition.bisect import pmetis_partition
from repro.partition.kway import kway_partition
from repro.partition.metrics import partition_quality
from repro.perfmodel.machines import CRAY_T3E_600, MachineSpec

__all__ = ["run_fig4"]


def run_fig4(*, procs=(2, 4, 8, 16, 32), size: str = "medium",
             machine: MachineSpec = CRAY_T3E_600, max_steps: int = 4,
             fill_level: int = 0, seed: int = 0) -> ExperimentResult:
    """Regenerate the Fig. 4 speedup comparison."""
    prob = default_wing(size, seed=seed)
    graph = prob.mesh.vertex_graph()
    net = network_from_machine(machine)
    result = ExperimentResult(
        name=f"Fig. 4 analogue ({prob.name} on {machine.name})",
        headers=["Partitioner", "Procs", "Its", "Time(s)", "Speedup",
                 "Imbalance", "Extra comps", "Edge cut"],
    )
    for name, partition in (("k-metis-like", kway_partition),
                            ("p-metis-like", pmetis_partition)):
        base_time = None
        base_p = None
        for p in procs:
            labels = partition(graph, p, seed=seed)
            its, _ = measured_linear_iterations(
                prob, p, labels=labels, fill_level=fill_level,
                max_steps=max_steps, seed=seed)
            works = build_rank_work(graph, labels, prob.disc.ncomp,
                                    fill_ratio=1.0 + fill_level)
            plan = build_exchange_plan(graph, labels)
            tl = simulate_solve(works, plan, machine, net,
                                linear_its_per_step=its, refresh_every=2)
            if base_time is None:
                base_time, base_p = tl.total_wall, p
            q = partition_quality(graph, labels)
            result.rows.append([
                name, p, sum(its), round(tl.total_wall, 3),
                round(base_time / tl.total_wall * 1.0, 2),
                round(q.imbalance, 3), q.total_extra_components,
                q.edge_cut])
    result.notes.append(
        f"speedups relative to each partitioner's own {procs[0]}-proc run")
    return result
