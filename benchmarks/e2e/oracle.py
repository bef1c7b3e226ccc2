"""Correctness checks: every solve is held to an oracle, not to itself.

Three independent checks per solve:

* the solver's own verdict — ``converged`` and the final reduction at
  or below the workload's target;
* the final state's residual re-evaluated on the oracle tier (numpy
  kernels, fp64), which must also be at or below the target: a
  compiled or fp32 run cannot pass by agreeing with itself;
* where ``reference/seed-<n>.json`` holds the workload (written by
  ``run.py --make-reference`` from a solve on the oracle tier:
  ``engine="numpy"``, fp64, ``local``), the flow functionals — lift,
  drag, wall-pressure range, state norm — must match it to the
  workload's tolerance.  Seeds without a reference skip this check.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

__all__ = ["functionals", "oracle_reduction", "check_solve",
           "load_reference", "reference_path"]

HERE = pathlib.Path(__file__).resolve().parent
#: headroom on the oracle-tier residual: the compiled flux differs from
#: the numpy one by re-association only, far below this
ORACLE_SLACK = 1.01


def reference_path(seed: int, smoke: bool) -> pathlib.Path:
    stem = f"smoke-seed-{seed}" if smoke else f"seed-{seed}"
    return HERE / "reference" / f"{stem}.json"


def load_reference(seed: int, smoke: bool) -> dict:
    path = reference_path(seed, smoke)
    if not path.exists():
        return {}
    with open(path) as fh:
        return json.load(fh)["workloads"]


def functionals(disc, q: np.ndarray) -> dict:
    """What a user reads off a converged wing solve."""
    from repro.euler.forces import integrate_wall_forces, wall_pressure

    forces = integrate_wall_forces(disc, q)
    _, p = wall_pressure(disc, q)
    return {"lift": float(forces.lift), "drag": float(forces.drag),
            "wall_p_min": float(p.min()), "wall_p_max": float(p.max()),
            "state_norm": float(np.linalg.norm(q))}


def oracle_reduction(disc, q: np.ndarray, q0: np.ndarray) -> float:
    """||R(q)|| / ||R(q0)|| with the numpy fp64 kernels."""
    engine = disc.engine
    evals = disc.nresidual_evals
    disc.engine = "numpy"
    try:
        f = np.linalg.norm(disc.residual(np.asarray(q, dtype=np.float64)))
        f0 = np.linalg.norm(disc.residual(np.asarray(q0, dtype=np.float64)))
    finally:
        disc.engine = engine
        disc.nresidual_evals = evals
    return float(f / f0)


def _mismatches(got: dict, ref: dict, rtol: float) -> list[str]:
    force = max(abs(ref["lift"]), abs(ref["drag"]))
    press = max(abs(ref["wall_p_min"]), abs(ref["wall_p_max"]))
    scale = {"lift": force, "drag": force, "wall_p_min": press,
             "wall_p_max": press, "state_norm": abs(ref["state_norm"])}
    return [f"{k} {got[k]!r} differs from reference {ref[k]!r} by more "
            f"than {rtol:g} of {scale[k]:.3e}"
            for k in scale if abs(got[k] - ref[k]) > rtol * scale[k]]


def check_solve(disc, q0: np.ndarray, report, target: float, *,
                reference: dict | None, rtol: float) -> list[str]:
    """Reasons this solve fails; empty list = correct."""
    if report.final_state is None:
        return ["no final state"]
    why = []
    if not report.converged:
        why.append(f"not converged after {report.num_steps} steps")
    if not report.final_reduction <= target:
        why.append(f"final reduction {report.final_reduction:.3e} "
                   f"above target {target:g}")
    red = oracle_reduction(disc, report.final_state, q0)
    if not red <= target * ORACLE_SLACK:
        why.append(f"oracle-tier reduction {red:.3e} above target {target:g}")
    if reference:
        why += _mismatches(functionals(disc, report.final_state),
                           reference["functionals"], rtol)
    return why
