"""Edge-based vertex-centred finite-volume Euler discretisations.

Reimplements the discretisation family of FUN3D that the paper runs:

* **incompressible** Euler via Chorin artificial compressibility —
  4 unknowns per vertex (p, u, v, w), matching the paper's
  "90,708 DOFs incompressible" = 4 x 22,677;
* **compressible** Euler — 5 unknowns per vertex (rho, momentum, E),
  matching "113,385 DOFs compressible" = 5 x 22,677;

with Rusanov (local Lax-Friedrichs) numerical fluxes on median-dual
faces, optional second-order linear reconstruction with limiting, a
first-order *analytical* point-block Jacobian (the paper always builds
the preconditioner from the first-order Jacobian), and a matrix-free
Jacobian-vector product for the outer Krylov operator.
"""

from repro.euler.state import FlowState, incompressible_freestream, compressible_freestream
from repro.euler.fluxes import (
    incompressible_flux,
    incompressible_flux_jacobian,
    incompressible_wavespeed,
    compressible_flux,
    compressible_flux_jacobian,
    compressible_wavespeed,
    rusanov_flux,
)
from repro.euler.boundary import BoundaryCondition, classify_box_boundary
from repro.euler.reconstruction import green_gauss_gradients, Limiter
from repro.euler.incompressible import IncompressibleEuler
from repro.euler.compressible import CompressibleEuler
from repro.euler.forces import WallForces, integrate_wall_forces, wall_pressure
from repro.euler.problems import (wing_problem, transonic_bump_problem,
                                  FlowProblem)

__all__ = [
    "FlowState",
    "incompressible_freestream",
    "compressible_freestream",
    "incompressible_flux",
    "incompressible_flux_jacobian",
    "incompressible_wavespeed",
    "compressible_flux",
    "compressible_flux_jacobian",
    "compressible_wavespeed",
    "rusanov_flux",
    "BoundaryCondition",
    "classify_box_boundary",
    "green_gauss_gradients",
    "Limiter",
    "IncompressibleEuler",
    "CompressibleEuler",
    "wing_problem",
    "transonic_bump_problem",
    "FlowProblem",
    "WallForces",
    "integrate_wall_forces",
    "wall_pressure",
]
