"""Fig. 5: effect of the initial CFL number on ΨTC convergence.

The SER law grows the timestep from N_CFL^0 as the residual falls; a
small initial CFL is robust but wastes pseudo-timesteps in an
"induction" period, while an aggressive start converges much sooner on
smooth flows.  We regenerate the residual-history curves with real
solver runs at several initial CFL values.
"""

from __future__ import annotations

from repro.core import NKSSolver, SolverConfig
from repro.experiments.common import ExperimentResult, claim, default_wing
from repro.solvers.ptc import PTCConfig

__all__ = ["run_fig5", "check_fig5", "histories"]

_HISTORY_NOTE = "residual histories (||F||/||F0||):"


def run_fig5(*, cfl0_values=(1.0, 5.0, 10.0, 50.0), size: str = "small",
             max_steps: int = 60) -> ExperimentResult:
    """One row per initial CFL; the figure's residual-vs-step curves are
    the notes after the histories header, one ``CFL0=<x>`` line each."""
    prob = default_wing(size)
    result = ExperimentResult(
        name=f"Fig. 5 analogue ({prob.name})",
        headers=["CFL0", "Steps to 1e-6", "Converged", "Final reduction",
                 "Reduction at step 5"],
        notes=[_HISTORY_NOTE],
    )
    for cfl0 in cfl0_values:
        # the oracle tier, like every solve behind a paper artefact
        cfg = SolverConfig(
            ptc=PTCConfig(cfl0=cfl0, exponent=1.0),
            max_steps=max_steps, target_reduction=1e-6,
            matrix_free=True, jacobian_lag=2, engine="numpy")
        rep = NKSSolver(prob.disc, cfg).solve(prob.initial.flat())
        hist = rep.residual_history / rep.fnorm0
        result.rows.append([cfl0, rep.num_steps, rep.converged,
                            float(hist[-1]),
                            float(hist[min(5, hist.size - 1)])])
        result.notes.append(f"CFL0={cfl0:<6g} "
                            + " ".join(f"{x:.1e}" for x in hist))
    return result


def histories(result: ExperimentResult) -> dict[float, list[float]]:
    """The residual curves of a Fig. 5 result, keyed by initial CFL."""
    curves = result.notes[result.notes.index(_HISTORY_NOTE) + 1:]
    return {float(label.removeprefix("CFL0=")): [float(x) for x in values]
            for label, *values in (line.split() for line in curves)}


def check_fig5(result: ExperimentResult) -> None:
    steps = result.column("Steps to 1e-6")
    at5 = result.column("Reduction at step 5")
    claim(all(result.column("Converged")), "every run converges (no shock)")
    claim(all(b <= a for a, b in zip(steps, steps[1:]))
          and steps[0] > 1.8 * steps[-1],
          "a larger initial CFL takes fewer steps")
    claim(at5[0] > 50 * at5[-1], "the small-CFL run has an induction period")
