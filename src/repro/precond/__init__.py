"""Domain-decomposition preconditioners (the "S" in NKS).

Implements the paper's preconditioner family: block Jacobi (zero
overlap) and (restricted) additive Schwarz with configurable overlap,
each with an ILU(k) subdomain solver — the exact grid of Table 4.
"""

from repro.precond.subdomain import SubdomainSolver
from repro.precond.asm import AdditiveSchwarz, ASMConfig, ASMVariant

__all__ = [
    "SubdomainSolver",
    "AdditiveSchwarz",
    "ASMConfig",
    "ASMVariant",
]
