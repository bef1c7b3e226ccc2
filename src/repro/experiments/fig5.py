"""Fig. 5: effect of the initial CFL number on ΨTC convergence.

The SER law grows the timestep from N_CFL^0 as the residual falls; a
small initial CFL is robust but wastes pseudo-timesteps in an
"induction" period, while an aggressive start converges much sooner on
smooth flows.  We regenerate the residual-history curves with real
solver runs at several initial CFL values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import NKSSolver, SolverConfig
from repro.experiments.common import ExperimentResult, default_wing
from repro.solvers.ptc import PTCConfig

__all__ = ["run_fig5", "CFLHistory"]


@dataclass
class CFLHistory:
    cfl0: float
    residuals: np.ndarray
    converged: bool
    steps_to_target: int


def run_fig5(*, cfl0_values=(1.0, 5.0, 10.0, 50.0), size: str = "small",
             target: float = 1e-6, max_steps: int = 60,
             exponent: float = 1.0, seed: int = 0
             ) -> tuple[ExperimentResult, list[CFLHistory]]:
    """Residual-vs-iteration histories for each initial CFL."""
    prob = default_wing(size, seed=seed)
    result = ExperimentResult(
        name=f"Fig. 5 analogue ({prob.name})",
        headers=["CFL0", "Steps to 1e-6", "Converged", "Final reduction"],
    )
    histories: list[CFLHistory] = []
    for cfl0 in cfl0_values:
        # the oracle tier, like every solve behind a paper artefact
        cfg = SolverConfig(
            ptc=PTCConfig(cfl0=cfl0, exponent=exponent),
            max_steps=max_steps, target_reduction=target,
            matrix_free=True, jacobian_lag=2, engine="numpy")
        rep = NKSSolver(prob.disc, cfg).solve(prob.initial.flat())
        hist = rep.residual_history / rep.fnorm0
        histories.append(CFLHistory(
            cfl0=cfl0, residuals=hist, converged=rep.converged,
            steps_to_target=rep.num_steps))
        result.rows.append([cfl0, rep.num_steps, rep.converged,
                            float(hist[-1])])
    return result, histories
