"""Nonlinear and linear solvers: the NKS ("Newton-Krylov-Schwarz") stack.

* :mod:`repro.solvers.gmres` — restarted GMRES with selectable
  orthogonalisation, right preconditioning (so residual norms are true
  residuals), and full iteration accounting.
* :mod:`repro.solvers.ptc` — pseudo-transient continuation with the
  switched evolution/relaxation (SER) CFL law of Van Leer & Mulder,
  the power-law form tuned in the paper's Sec. 2.4.1.
"""

from repro.solvers.krylov_base import LinearOperator, as_operator, OperatorFromMatrix
from repro.solvers.gmres import gmres, GMRESResult, Orthogonalization
from repro.solvers.workspace import KrylovWorkspace, solve_dtype
from repro.solvers._reference import gmres_ref
from repro.solvers.ptc import SERController, PTCConfig

__all__ = [
    "LinearOperator",
    "as_operator",
    "OperatorFromMatrix",
    "gmres",
    "gmres_ref",
    "KrylovWorkspace",
    "solve_dtype",
    "GMRESResult",
    "Orthogonalization",
    "SERController",
    "PTCConfig",
]
