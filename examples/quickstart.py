#!/usr/bin/env python3
"""Quickstart: solve an incompressible Euler wing flow with ΨNKS.

Builds a small wing-in-a-box mesh (the scaled M6 stand-in), runs the
pseudo-transient Newton-Krylov-Schwarz solver in its production
configuration (matrix-free second-order operator, first-order ILU
block-Jacobi preconditioner, SER CFL continuation), and prints the
convergence history and a physical summary of the flow.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import NKSSolver, SolverConfig, wing_problem
from repro.core.config import PreconditionerConfig
from repro.solvers.ptc import PTCConfig


def main() -> None:
    # 1. Build the problem: geometry, dual metrics, BCs, freestream.
    prob = wing_problem(13, 9, 7, alpha_deg=3.0)
    print(prob.mesh.summary())
    print(f"unknowns: {prob.num_unknowns} "
          f"({prob.disc.ncomp} per vertex, interlaced)\n")

    # 2. Configure the solver (all of the paper's Sec. 2.4 knobs live
    #    in SolverConfig; these are the tuned defaults).
    config = SolverConfig(
        ptc=PTCConfig(cfl0=10.0, exponent=1.0),
        matrix_free=True,          # true 2nd-order J*v, assembled 1st-order PC
        jacobian_lag=2,            # refresh the preconditioner every 2 steps
        max_steps=40,
        target_reduction=1e-8,
        precond=PreconditionerConfig(nparts=4, fill_level=1),
    )

    # 3. Solve.
    solver = NKSSolver(prob.disc, config)
    report = solver.solve(prob.initial.flat(), verbose=True)

    # 4. Inspect.
    print(f"\nconverged: {report.converged} in {report.num_steps} steps, "
          f"{report.total_linear_iterations} linear iterations")
    # Where the time went: examples/record_trace.py runs this solve with
    # a TraceRecorder attached and prints the per-phase breakdown.

    q = report.final_state.reshape(-1, prob.disc.ncomp)
    bc = prob.disc.bc
    wall = bc.vertices[bc.wall_mask]
    print(f"\nwall vertices: {wall.size}")
    print(f"wall pressure range: [{q[wall, 0].min():+.4f}, "
          f"{q[wall, 0].max():+.4f}] (freestream 0.0)")
    speed = np.linalg.norm(q[:, 1:4], axis=1)
    print(f"speed range: [{speed.min():.3f}, {speed.max():.3f}] "
          f"(freestream 1.0)")


if __name__ == "__main__":
    main()
