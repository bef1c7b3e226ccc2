"""All tuning knobs of the ΨNKS solver (paper Sec. 2.4's parameter list).

The grouping follows the paper's own taxonomy:

* nonlinear robustness continuation parameters -> :class:`PTCConfig`
  (in :mod:`repro.solvers.ptc`): initial CFL, SER exponent,
  discretisation-order switchover;
* Newton parameters -> Jacobian/preconditioner refresh frequency
  (``jacobian_lag``);
* Krylov parameters -> :class:`KrylovConfig`: forcing tolerance,
  restart dimension, iteration cap, orthogonalisation;
* Schwarz parameters -> :class:`PreconditionerConfig`: subdomain
  count, overlap, fill level, (R)ASM variant;
* subproblem parameters -> fill level (above) and the factor storage
  precision, which is ``SolverConfig.policy``'s ``precond_dtype``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.precond.asm import ASMVariant
from repro.solvers.gmres import Orthogonalization
from repro.solvers.ptc import PTCConfig
from repro.sparse.precision import PrecisionPolicy

__all__ = ["KrylovConfig", "PreconditionerConfig", "SolverConfig"]


@dataclass
class KrylovConfig:
    rtol: float = 1e-2               # inexact-Newton forcing (paper: 0.001-0.01)
    restart: int = 20                # GMRES(m); paper uses 10-30
    max_iterations: int = 40         # total linear its per Newton (10-80)
    orthogonalization: Orthogonalization = Orthogonalization.MGS

    def __post_init__(self) -> None:
        self.orthogonalization = Orthogonalization(self.orthogonalization)


@dataclass
class PreconditionerConfig:
    nparts: int = 1                  # subdomains (1/processor in the paper)
    overlap: int = 0                 # Schwarz overlap delta (Table 4: 0-2)
    fill_level: int = 1              # ILU(k) (Table 4: 0-2; best often 1)
    variant: ASMVariant = ASMVariant.RESTRICTED
    partitioner: str = "kway"        # 'kway' | 'pmetis' | 'given'
    labels: np.ndarray | None = None  # used when partitioner == 'given'

    def __post_init__(self) -> None:
        self.variant = ASMVariant(self.variant)


@dataclass
class SolverConfig:
    ptc: PTCConfig = field(default_factory=PTCConfig)
    krylov: KrylovConfig = field(default_factory=KrylovConfig)
    precond: PreconditionerConfig = field(default_factory=PreconditionerConfig)
    max_steps: int = 60              # pseudo-timestep cap
    target_reduction: float = 1e-6   # stop at ||F|| / ||F0|| below this
    absolute_tol: float = 1e-12      # ... or at ||F|| below this floor
    jacobian_lag: int = 1            # refresh Jacobian/PC every k steps
    matrix_free: bool = False        # FD J*v operator (1st-order J still
                                     # assembled for the preconditioner)
    seed: int = 0
    executor: str = "local"          # 'local' | 'seq' | 'proc': run the
                                     # residual/matvec through the SPMD
                                     # kernels (seq = in-process rank
                                     # loop, proc = shm worker pool)
    nworkers: int | None = None      # worker processes for 'proc'
    engine: str = "compiled"         # 'compiled' | 'numpy': kernel tier
                                     # for ILU/trisolve/SpMV/residual/
                                     # assembly (repro.kernels; degrades
                                     # to numpy without a backend; numpy
                                     # is the oracle tier)
    policy: PrecisionPolicy | str = "fp64"  # per-phase precision tier
                                     # ('fp64' | 'fp32-precond' | 'fp32'
                                     # or a PrecisionPolicy): Krylov
                                     # basis + ILU factor storage

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not (0 < self.target_reduction <= 1):
            raise ValueError("target_reduction must be in (0, 1]")
        if self.jacobian_lag < 1:
            raise ValueError("jacobian_lag must be >= 1")
        if self.executor not in ("local", "seq", "proc"):
            raise ValueError("executor must be 'local', 'seq', or 'proc'")
        if self.nworkers is not None and self.nworkers < 1:
            raise ValueError("nworkers must be >= 1")
        if self.engine not in ("numpy", "compiled"):
            raise ValueError("engine must be 'numpy' or 'compiled'")
        self.policy = PrecisionPolicy.named(self.policy)
