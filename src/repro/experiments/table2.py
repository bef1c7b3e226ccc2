"""Table 2: single- vs double-precision preconditioner storage.

The paper stores the ILU factors in float32 (arithmetic stays float64)
and observes the *linear solve* phase running almost twice as fast on
the Origin 2000 — direct evidence that the triangular solves are
memory-bandwidth bound — while iteration counts are unchanged.

Reproduction: real NKS runs at each subdomain count under every
precision tier (``fp64``, the paper's ``fp32-precond``, and ``fp32``,
which also narrows the Krylov basis) confirm the unchanged iteration
counts (measured); the linear-solve and overall times come from the
Origin 2000 model with the preconditioner-value traffic halved (the
same lever the hardware pulls).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (ExperimentResult, claim, default_wing,
                                      measured_linear_iterations)
from repro.parallel.netmodel import network_from_machine
from repro.parallel.rankwork import build_rank_work
from repro.parallel.simulate import simulate_solve
from repro.parallel.spmd import SPMDLayout
from repro.perfmodel.machines import ORIGIN2000_R10K

__all__ = ["run_table2", "check_table2", "PAPER_TABLE2"]

# Paper Table 2: procs -> (linear_double, linear_single, overall_double,
#                          overall_single) seconds on the Origin 2000.
PAPER_TABLE2 = {
    16: (223, 136, 746, 657),
    32: (117, 67, 373, 331),
    64: (60, 34, 205, 181),
    120: (31, 16, 122, 106),
}


def run_table2() -> ExperimentResult:
    """Regenerate Table 2 at scaled processor counts: ILU(1) subdomain
    solves on the Origin 2000 model."""
    prob = default_wing("medium")
    machine, fill_level = ORIGIN2000_R10K, 1
    net = network_from_machine(machine)
    result = ExperimentResult(
        name=f"Table 2 analogue ({prob.name} on {machine.name})",
        headers=["Procs", "Trisolve dbl(s)", "Trisolve sgl(s)", "Tri ratio",
                 "Linear dbl(s)", "Linear sgl(s)", "Lin ratio",
                 "Overall dbl(s)", "Overall sgl(s)", "Ovl ratio",
                 "Its fp64", "Its fp32-precond", "Its fp32"],
    )
    for p in (4, 8, 16):
        times = {}
        its_counts = {}
        layout = None
        # fp32 stores the factors exactly like fp32-precond (same
        # modelled times); only its measured iteration count is new.
        for policy, vbytes in (("fp64", 8), ("fp32-precond", 4),
                               ("fp32", 4)):
            its, labels = measured_linear_iterations(
                prob, p, fill_level=fill_level, policy=policy, max_steps=4)
            # Every policy partitions the same graph with the same seed:
            # one partition, so one layout per processor count.
            if layout is None:
                layout = SPMDLayout.build(prob.mesh.edges, labels)
            claim(np.array_equal(labels, layout.labels),
                  f"every precision policy gets the same {p}-part labels")
            works = build_rank_work(layout, prob.disc.ncomp,
                                    fill_ratio=1.0 + fill_level,
                                    precond_value_bytes=vbytes)
            tl = simulate_solve(works, layout.plan, machine, net,
                                linear_its_per_step=its, refresh_every=2)
            times[policy] = (tl.total_pcapply_wall, tl.total_linear_wall,
                             tl.total_wall)
            its_counts[policy] = sum(its)
        td, ld, od = times["fp64"]
        ts, ls, os_ = times["fp32-precond"]
        result.rows.append([
            p, round(td, 3), round(ts, 3), round(td / ts, 2),
            round(ld, 3), round(ls, 3), round(ld / ls, 2),
            round(od, 3), round(os_, 3), round(od / os_, 2),
            its_counts["fp64"], its_counts["fp32-precond"],
            its_counts["fp32"],
        ])
    result.notes.append(
        "iteration counts are measured from real runs under each precision "
        "tier; times are Origin 2000 model values")
    return result


def check_table2(result: ExperimentResult) -> None:
    claim(all(1.6 < r < 2.1 for r in result.column("Tri ratio")),
          "fp32 factors run the triangular solves almost twice as fast")
    claim(all(r > 1.1 for r in result.column("Lin ratio")),
          "the linear phase improves")
    claim(all(1.0 < r < 1.6 for r in result.column("Ovl ratio")),
          "the overall time improves, less so")
    claim(result.column("Its fp64") == result.column("Its fp32-precond")
          == result.column("Its fp32"), "iteration counts are unchanged")
