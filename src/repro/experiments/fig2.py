"""Fig. 2: aggregate Gflop/s and execution time on three machines.

ASCI Red, Blue Pacific, and the T3E run the same fixed-size problem at
increasing node counts; flop rates scale near-linearly while execution
time flattens as per-node work shrinks and communication/redundancy
grow.  We regenerate both panels from the Table 3 pipeline: the
iteration counts are measured once per processor count (they are a
property of the partition, not the machine) and then priced on each
machine's parameter sheet.
"""

from __future__ import annotations

from repro.experiments.common import (ExperimentResult, default_wing,
                                      measured_linear_iterations)
from repro.parallel.netmodel import network_from_machine
from repro.parallel.rankwork import build_rank_work
from repro.parallel.scatter import build_exchange_plan
from repro.parallel.simulate import simulate_solve
from repro.experiments.table3 import _total_flops
from repro.perfmodel.machines import (ASCI_RED_PPRO, BLUE_PACIFIC_604E,
                                      CRAY_T3E_600)

__all__ = ["run_fig2"]

_MACHINES = (ASCI_RED_PPRO, BLUE_PACIFIC_604E, CRAY_T3E_600)


def run_fig2(*, procs=(2, 4, 8, 16), size: str = "medium",
             max_steps: int = 4, fill_level: int = 1,
             seed: int = 0) -> ExperimentResult:
    """Both Fig. 2 panels as one table (a row per machine x node count)."""
    prob = default_wing(size, seed=seed)
    graph = prob.mesh.vertex_graph()
    result = ExperimentResult(
        name=f"Fig. 2 analogue ({prob.name})",
        headers=["Machine", "Procs", "Gflop/s", "Time(s)",
                 "Ideal Gflop/s", "Ideal time(s)"],
    )
    # Measure the algorithmic content once per processor count.
    measured = {}
    for p in procs:
        its, labels = measured_linear_iterations(
            prob, p, fill_level=fill_level, max_steps=max_steps, seed=seed)
        measured[p] = (its, labels)

    for machine in _MACHINES:
        net = network_from_machine(machine)
        base = None
        for p in procs:
            its, labels = measured[p]
            works = build_rank_work(graph, labels, prob.disc.ncomp,
                                    fill_ratio=1.0 + fill_level)
            plan = build_exchange_plan(graph, labels)
            tl = simulate_solve(works, plan, machine, net,
                                linear_its_per_step=its, refresh_every=2)
            gflops = _total_flops(works, its) / max(tl.total_wall, 1e-30) / 1e9
            if base is None:
                base = (p, gflops, tl.total_wall)
            scale = p / base[0]
            result.rows.append([
                machine.name, p, round(gflops, 4),
                round(tl.total_wall, 3),
                round(base[1] * scale, 4),
                round(base[2] / scale, 3)])
    result.notes.append("'ideal' columns are the dashed perfect-scaling "
                        "lines of the paper's figure")
    return result
