"""Table 4: Additive Schwarz overlap x ILU fill level.

The paper sweeps ILU(k) for k in {0,1,2} against overlap in {0,1,2}
on 16/32/64 processors of ASCI Red: more overlap and more fill reduce
*iterations*, but both add memory traffic and per-iteration work, so
the best *time* sits at modest fill (ILU(1)) and zero/small overlap —
increasingly so at high processor counts.

Reproduction: iteration counts are measured by real (R)ASM runs for
every (k, overlap, p) cell; per-iteration costs feed the ASCI Red
model with the *measured* factor fill ratio and the overlapped-rows
work/communication surcharge.
"""

from __future__ import annotations


from repro.experiments.common import (ExperimentResult, claim, default_wing,
                                      solve_with_partition)
from repro.parallel.netmodel import network_from_machine
from repro.parallel.rankwork import build_rank_work
from repro.parallel.scatter import build_exchange_plan
from repro.parallel.simulate import simulate_solve
from repro.perfmodel.machines import ASCI_RED_PPRO, MachineSpec

__all__ = ["run_table4", "check_table4", "PAPER_TABLE4"]

# Paper Table 4: (fill, procs) -> [(time, its) for overlap 0, 1, 2].
PAPER_TABLE4 = {
    (0, 16): [(688, 930), (661, 816), (696, 813)],
    (0, 32): [(371, 993), (374, 876), (418, 887)],
    (0, 64): [(210, 1052), (230, 988), (222, 872)],
    (1, 16): [(598, 674), (564, 549), (617, 532)],
    (1, 32): [(334, 746), (335, 617), (359, 551)],
    (1, 64): [(177, 807), (178, 630), (200, 555)],
    (2, 16): [(688, 527), (786, 441), (None, None)],
    (2, 32): [(386, 608), (441, 488), (531, 448)],
    (2, 64): [(193, 631), (272, 540), (313, 472)],
}


def run_table4(*, procs=(4, 8), fills=(0, 1, 2), overlaps=(0, 1, 2),
               size: str = "medium", machine: MachineSpec = ASCI_RED_PPRO,
               max_steps: int = 3, cfl0: float = 1000.0,
               krylov_rtol: float = 1e-4, seed: int = 0) -> ExperimentResult:
    """Regenerate Table 4 at scaled processor counts.

    Every cell is a real solve (fixed pseudo-steps) whose iteration
    count and *measured* ILU fill ratio parameterise the machine model.
    The runs use the assembled (defect-correction) operator and a tight
    forcing tolerance so the linear iteration counts reflect
    *preconditioner quality*, as in the paper's GMRES(20) runs —
    matrix-free FD noise and loose forcing would mask the fill/overlap
    effect at our reduced subdomain sizes.
    """
    prob = default_wing(size, seed=seed)
    graph = prob.mesh.vertex_graph()
    net = network_from_machine(machine)
    result = ExperimentResult(
        name=f"Table 4 analogue ({prob.name} on {machine.name})",
        headers=["Fill", "Procs", "Ovl", "Its", "Time(s)", "Fill ratio",
                 "Ghost frac"],
    )
    base_nnzb = prob.mesh.num_vertices + 2 * prob.mesh.num_edges
    for k in fills:
        for p in procs:
            for delta in overlaps:
                solver, report = solve_with_partition(
                    prob, p, fill_level=k, overlap=delta,
                    max_steps=max_steps, cfl0=cfl0,
                    krylov_rtol=krylov_rtol, krylov_maxiter=300,
                    matrix_free=False, seed=seed)
                its = [s.linear_iterations for s in report.steps]
                pc = solver._pc
                fill_ratio = pc.total_factor_nnz() / base_nnzb
                ghost_frac = pc.overlap_fraction()
                labels = solver.partition_labels
                works = build_rank_work(
                    graph, labels, prob.disc.ncomp, fill_ratio=fill_ratio)
                # Overlap surcharge: each rank redundantly factors and
                # solves its ghost rows, and standard/restricted ASM
                # moves the overlapped residual once per application.
                for w in works:
                    w.owned_vertices = int(w.owned_vertices
                                           * (1 + ghost_frac))
                plan = build_exchange_plan(graph, labels)
                tl = simulate_solve(works, plan, machine, net,
                                    linear_its_per_step=its,
                                    refresh_every=2)
                result.rows.append([
                    k, p, delta, sum(its), round(tl.total_wall, 3),
                    round(fill_ratio, 2), round(ghost_frac, 3)])
    result.notes.append("iterations measured from real (R)ASM runs; times "
                        "from the ASCI Red model with measured fill ratios")
    return result


def check_table4(result: ExperimentResult) -> None:
    cells = {(fill, p, ovl): (its, t)
             for fill, p, ovl, its, t, _, _ in result.rows}
    procs = sorted({k[1] for k in cells})
    fills = sorted({k[0] for k in cells})
    for k in fills:
        for p in procs:
            claim(cells[(k, p, 1)][0] <= cells[(k, p, 0)][0]
                  and cells[(k, p, 2)][0] <= cells[(k, p, 1)][0] + 2,
                  f"overlap reduces iterations at ILU({k}), {p} procs")
    for p in procs:
        for ovl in (0, 1, 2):
            claim(cells[(2, p, ovl)][0] <= cells[(0, p, ovl)][0],
                  f"fill reduces iterations at overlap {ovl}, {p} procs")
    # the paper's central trade-off: the extra work per iteration
    # outweighs the iteration savings
    for p in procs:
        best = min(t for (k, pp, o), (_, t) in cells.items() if pp == p)
        claim(cells[(2, p, 2)][1] > best,
              f"ILU(2), overlap 2 is not the fastest at {p} procs")
    for k in fills:
        for ovl in (0, 1, 2):
            claim(cells[(k, procs[-1], ovl)][1] < cells[(k, procs[0], ovl)][1],
                  f"more processors are faster at ILU({k}), overlap {ovl}")
