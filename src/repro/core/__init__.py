"""PETSc-FUN3D-equivalent application driver.

:class:`~repro.core.driver.NKSSolver` is the reproduction of the
paper's solver: pseudo-transient continuation (SER CFL law) around an
inexact Newton step, solved by restarted GMRES preconditioned with
block-Jacobi/(R)ASM-ILU(k) — with every tuning knob of the paper's
Sec. 2.4 exposed in :class:`~repro.core.config.SolverConfig`.
"""

from repro.core.config import SolverConfig, PreconditionerConfig, KrylovConfig
from repro.core.driver import NKSSolver, SolveReport, StepRecord
from repro.core.reporting import format_table

__all__ = [
    "SolverConfig",
    "PreconditionerConfig",
    "KrylovConfig",
    "NKSSolver",
    "SolveReport",
    "StepRecord",
    "format_table",
]
