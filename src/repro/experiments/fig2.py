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

from collections import defaultdict

from repro.experiments.common import (ExperimentResult, claim, default_wing,
                                      measured_linear_iterations)
from repro.parallel.netmodel import network_from_machine
from repro.parallel.rankwork import build_rank_work
from repro.parallel.simulate import simulate_solve
from repro.parallel.spmd import SPMDLayout
from repro.experiments.table3 import _total_flops
from repro.perfmodel.machines import (ASCI_RED_PPRO, BLUE_PACIFIC_604E,
                                      CRAY_T3E_600)

__all__ = ["run_fig2", "check_fig2"]

_MACHINES = (ASCI_RED_PPRO, BLUE_PACIFIC_604E, CRAY_T3E_600)


def run_fig2() -> ExperimentResult:
    """Both Fig. 2 panels as one table (a row per machine x node count):
    ILU(1) subdomain solves on 2 to 16 processors."""
    prob = default_wing("medium")
    procs, fill_level = (2, 4, 8, 16), 1
    result = ExperimentResult(
        name=f"Fig. 2 analogue ({prob.name})",
        headers=["Machine", "Procs", "Gflop/s", "Time(s)",
                 "Ideal Gflop/s", "Ideal time(s)"],
    )
    # Measure the algorithmic content once per processor count.
    measured = {}
    for p in procs:
        its, labels = measured_linear_iterations(
            prob, p, fill_level=fill_level, max_steps=4)
        measured[p] = (its, SPMDLayout.build(prob.mesh.edges, labels))

    for machine in _MACHINES:
        net = network_from_machine(machine)
        base = None
        for p in procs:
            its, layout = measured[p]
            works = build_rank_work(layout, prob.disc.ncomp,
                                    fill_ratio=1.0 + fill_level)
            tl = simulate_solve(works, layout.plan, machine, net,
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


def check_fig2(result: ExperimentResult) -> None:
    series = defaultdict(list)
    for machine, p, gflops, t, _, _ in result.rows:
        series[machine].append((p, gflops, t))
    claim(len(series) == 3, "three machines")
    for machine, pts in series.items():
        ps, gf, ts = zip(*pts)
        claim(all(b > a for a, b in zip(gf, gf[1:])),
              f"{machine}: flop rate grows")
        claim(all(b < a for a, b in zip(ts, ts[1:]))
              and ts[-1] > ts[0] / (ps[-1] / ps[0]),
              f"{machine}: time falls, sub-linearly")
    # per processor, the T3E's faster processor and network make it the
    # quickest; Blue Pacific's weak memory system the slowest
    at8 = {m: dict((p, t) for p, _, t in pts)[8]
           for m, pts in series.items()}
    t3e = [v for k, v in at8.items() if "T3E" in k][0]
    blue = [v for k, v in at8.items() if "Blue" in k][0]
    claim(t3e < blue, "the T3E beats Blue Pacific at 8 procs")
