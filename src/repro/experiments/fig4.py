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

from collections import defaultdict

from repro.experiments.common import (ExperimentResult, claim, default_wing,
                                      measured_linear_iterations)
from repro.parallel.netmodel import network_from_machine
from repro.parallel.rankwork import build_rank_work
from repro.parallel.simulate import simulate_solve
from repro.parallel.spmd import SPMDLayout
from repro.partition.bisect import pmetis_partition
from repro.partition.kway import kway_partition
from repro.partition.metrics import partition_quality
from repro.perfmodel.machines import CRAY_T3E_600

__all__ = ["run_fig4", "check_fig4"]


def run_fig4() -> ExperimentResult:
    """Regenerate the Fig. 4 speedup comparison: ILU(0) subdomain solves
    on 2 to 32 processors of the T3E model."""
    prob = default_wing("medium")
    procs, machine, fill_level = (2, 4, 8, 16, 32), CRAY_T3E_600, 0
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
        for p in procs:
            labels = partition(graph, p)
            its, _ = measured_linear_iterations(
                prob, p, labels=labels, fill_level=fill_level, max_steps=4)
            layout = SPMDLayout.build(prob.mesh.edges, labels)
            works = build_rank_work(layout, prob.disc.ncomp,
                                    fill_ratio=1.0 + fill_level)
            tl = simulate_solve(works, layout.plan, machine, net,
                                linear_its_per_step=its, refresh_every=2)
            if base_time is None:
                base_time = tl.total_wall
            q = partition_quality(graph, layout)
            result.rows.append([
                name, p, sum(its), round(tl.total_wall, 3),
                round(base_time / tl.total_wall * 1.0, 2),
                round(q.imbalance, 3), q.total_extra_components,
                q.edge_cut])
    result.notes.append(
        f"speedups relative to each partitioner's own {procs[0]}-proc run")
    return result


def check_fig4(result: ExperimentResult) -> None:
    series = defaultdict(dict)
    for name, p, its, _, spd, imb, _, _ in result.rows:
        series[name][p] = dict(its=its, speedup=spd, imb=imb)
    k, pm = series["k-metis-like"], series["p-metis-like"]
    pmax = max(k)
    claim(all(v["imb"] <= 1.04 for v in pm.values()), "p-metis balances")
    # the paper's punchline: at the largest subdomain count the k-way
    # partitions converge faster, hence speed up better, despite the
    # worse balance
    claim(k[pmax]["its"] <= pm[pmax]["its"]
          and k[pmax]["speedup"] >= pm[pmax]["speedup"] * 0.98,
          f"k-way wins at {pmax} procs")
    for s in (k, pm):
        claim(s[max(s)]["its"] >= s[min(s)]["its"], "its grow with P")
