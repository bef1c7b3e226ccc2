"""Ablations: the design alternatives the paper weighs, one table each.

Edge orderings run on the scaled R10000 counter simulator, injected
imbalance on the ASCI Red model (Sec. 2.3: the wait only shifts to the
next communication event unless the imbalance goes), and the
matrix-free / Jacobian-lag / RASM tables are real NKS solves.
"""

from __future__ import annotations

import numpy as np

from repro.core import NKSSolver, SolverConfig
from repro.core.config import PreconditionerConfig
from repro.experiments.common import (ExperimentResult, claim, default_wing,
                                      scaled_hierarchy)
from repro.memory.trace import flux_loop_trace
from repro.mesh import apply_orderings, shuffle_vertices, unit_cube_mesh
from repro.parallel import (SPMDLayout, build_rank_work,
                            network_from_machine, simulate_solve)
from repro.partition import kway_partition, load_imbalance
from repro.perfmodel.machines import ASCI_RED_PPRO, ORIGIN2000_R10K
from repro.solvers.ptc import PTCConfig
from repro.telemetry import TraceRecorder
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["run_edge_orderings", "check_edge_orderings", "run_imbalance",
           "check_imbalance", "run_matrix_free", "check_matrix_free",
           "run_jacobian_lag", "check_jacobian_lag", "run_rasm",
           "check_rasm"]

_VERTEX_ORDERS = ("random", "natural", "rcm")
_EDGE_ORDERS = ("colored", "random", "sorted")


def run_edge_orderings() -> ExperimentResult:
    """TLB / L1 / L2 misses of the flux loop over the ordering grid."""
    base = shuffle_vertices(unit_cube_mesh(12, jitter=0.2, seed=1), seed=7)
    result = ExperimentResult(
        name="Ordering sweep (flux loop, scaled R10000)",
        headers=["vertex order", "edge order", "TLB miss", "L1 miss",
                 "L2 miss"],
    )
    for vo in _VERTEX_ORDERS:
        for eo in _EDGE_ORDERS:
            mesh = apply_orderings(base, vo, eo)
            tr = flux_loop_trace(mesh.edges, mesh.num_vertices, 4)
            h = scaled_hierarchy(ORIGIN2000_R10K, 16)
            h.run(tr)
            c = h.counters
            result.rows.append([vo, eo, c.tlb_misses, c.l1_misses,
                                c.l2_misses])
    return result


def check_edge_orderings(result: ExperimentResult) -> None:
    tlb = {(r[0], r[1]): r[2] for r in result.rows}
    claim(tlb[("rcm", "sorted")] == min(tlb.values()),
          "the tuned (rcm, sorted) ordering has the fewest TLB misses")
    for vo in _VERTEX_ORDERS:
        claim(tlb[(vo, "sorted")] <= tlb[(vo, "colored")],
              f"edge sorting beats color-major under {vo} labels")
    for eo in _EDGE_ORDERS:
        claim(tlb[("rcm", eo)] <= tlb[("random", eo)],
              f"RCM beats random labels under {eo} edges")


def _skew_partition(labels: np.ndarray, nparts: int, frac: float,
                    seed: int = 0) -> np.ndarray:
    """Move a fraction of every other part's vertices into part 0."""
    rng = np.random.default_rng(seed)
    out = labels.copy()
    for p in range(1, nparts):
        members = np.where(out == p)[0]
        take = rng.choice(members, size=int(frac * members.size),
                          replace=False)
        out[take] = 0
    return out


def run_imbalance() -> ExperimentResult:
    """Implicit-synchronisation share of an 8-way partition skewed by
    moving growing fractions of every part into part 0."""
    mesh = unit_cube_mesh(12, jitter=0.2, seed=1)
    g = mesh.vertex_graph()
    nparts = 8
    base = kway_partition(g, nparts, seed=0)
    machine = ASCI_RED_PPRO
    net = network_from_machine(machine)
    result = ExperimentResult(
        name="Injected imbalance vs implicit synchronization "
             "(8 ranks, ASCI Red model)",
        headers=["skew frac", "imbalance", "%implicit sync", "%scatter",
                 "wall (s)"],
    )
    for frac in (0.0, 0.15, 0.3, 0.45):
        labels = _skew_partition(base, nparts, frac)
        layout = SPMDLayout.build(mesh.edges, labels)
        tl = simulate_solve(build_rank_work(layout, 4), layout.plan,
                            machine, net,
                            linear_its_per_step=[20] * 6)
        pct = tl.category_percent()
        result.rows.append([round(frac, 2),
                            round(load_imbalance(labels), 3),
                            round(pct["implicit_sync"], 1),
                            round(pct["scatter"], 1),
                            round(tl.total_wall, 3)])
    return result


def check_imbalance(result: ExperimentResult) -> None:
    sync = result.column("%implicit sync")
    wall = result.column("wall (s)")
    claim(all(b >= a for a, b in zip(sync, sync[1:])),
          "the implicit-sync share grows with injected skew")
    claim(sync[-1] > 2 * sync[0] + 1,
          "the largest skew more than doubles the implicit-sync share")
    claim(wall[-1] > wall[0], "skew costs wall time")


def _solve(prob, recorder=NULL_RECORDER, **kw):
    # the oracle tier, like every solve behind a paper artefact
    defaults = dict(ptc=PTCConfig(cfl0=10.0), max_steps=30,
                    target_reduction=1e-6, engine="numpy")
    defaults.update(kw)
    solver = NKSSolver(prob.disc, SolverConfig(**defaults),
                       recorder=recorder)
    return solver, solver.solve(prob.initial.flat())


def run_matrix_free() -> ExperimentResult:
    """Matrix-free (true second-order operator) versus defect
    correction (the assembled first-order operator)."""
    prob = default_wing("small")
    result = ExperimentResult(
        name=f"Matrix-free vs defect correction ({prob.name})",
        headers=["Operator", "Steps", "Its", "Converged"],
    )
    for label, kw in (("matrix-free", dict(matrix_free=True,
                                           jacobian_lag=2)),
                      ("defect-corr", dict(matrix_free=False,
                                           max_steps=80))):
        _, rep = _solve(prob, **kw)
        result.rows.append([label, rep.num_steps,
                            rep.total_linear_iterations, rep.converged])
    return result


def check_matrix_free(result: ExperimentResult) -> None:
    steps = dict(zip(result.column("Operator"), result.column("Steps")))
    claim(all(result.column("Converged")), "both operators converge")
    claim(steps["matrix-free"] < steps["defect-corr"],
          "matrix-free reaches the target in fewer pseudo-timesteps")


def run_jacobian_lag() -> ExperimentResult:
    """Lagging the preconditioner refresh trades a few extra linear
    iterations for far fewer factorisations."""
    prob = default_wing("small")
    result = ExperimentResult(
        name=f"Jacobian lag ({prob.name}, matrix-free)",
        headers=["Lag", "Steps", "Its", "Factorisations", "Converged"],
    )
    for lag in (1, 2, 4):
        rec = TraceRecorder()
        _, rep = _solve(prob, recorder=rec, matrix_free=True,
                        jacobian_lag=lag)
        result.rows.append([lag, rep.num_steps, rep.total_linear_iterations,
                            rec.phase_calls("precond_setup"),
                            rep.converged])
    return result


def check_jacobian_lag(result: ExperimentResult) -> None:
    setups = dict(zip(result.column("Lag"),
                      result.column("Factorisations")))
    claim(all(result.column("Converged")), "every lag converges")
    claim(setups[4] < setups[1], "lag 4 factors less often than lag 1")


def run_rasm() -> ExperimentResult:
    """Restricted versus standard additive Schwarz, 8 blocks, overlap 1."""
    prob = default_wing("small")
    result = ExperimentResult(
        name=f"RASM vs ASM ({prob.name}, 8 blocks, overlap 1, ILU(0))",
        headers=["Variant", "Its", "Comm phases"],
    )
    for variant in ("rasm", "asm"):
        solver, rep = _solve(
            prob, max_steps=6, target_reduction=1e-12, matrix_free=True,
            precond=PreconditionerConfig(nparts=8, overlap=1, fill_level=0,
                                         variant=variant))
        result.rows.append([variant, rep.total_linear_iterations,
                            solver._pc.communication_phases()])
    return result


def check_rasm(result: ExperimentResult) -> None:
    rows = {r[0]: r for r in result.rows}
    claim(rows["rasm"][2] == 1 and rows["asm"][2] == 2,
          "RASM needs one communication phase per apply, ASM two")
    claim(rows["rasm"][1] <= rows["asm"][1] * 1.25,
          "RASM converges no slower than ASM")
