#!/usr/bin/env python3
"""Pseudo-transient continuation tuning (the paper's Fig. 5).

Sweeps the initial CFL number of the SER timestep law and prints the
residual histories as ASCII curves: a small initial CFL is robust but
pays a long induction period; an aggressive one reaches the domain of
superlinear Newton convergence much sooner on smooth flows.

Run:  python examples/cfl_continuation.py
"""

import numpy as np

from repro.experiments.fig5 import run_fig5


def ascii_curve(residuals: np.ndarray, width: int = 60,
                floor: float = 1e-10) -> list[str]:
    """Render log10(residual) vs step as rows of '#'."""
    logs = np.log10(np.maximum(residuals, floor))
    lo, hi = np.log10(floor), 0.0
    out = []
    for step, v in enumerate(logs):
        frac = (v - lo) / (hi - lo)
        bar = "#" * max(1, int(frac * width))
        out.append(f"  {step:3d} |{bar}  {residuals[step]:.1e}")
    return out


def main() -> None:
    result, histories = run_fig5()
    print(result.table())
    for h in histories:
        print(f"\nCFL0 = {h.cfl0:g}  "
              f"({h.steps_to_target} steps to 1e-6 reduction)")
        print("\n".join(ascii_curve(h.residuals)))
    print("\nNote the induction plateau of CFL0=1 — the paper bypasses it "
          "with an\naggressive initial CFL whenever the flow is smooth "
          "(Sec. 2.4.1).")


if __name__ == "__main__":
    main()
