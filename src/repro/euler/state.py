"""Flow state containers and freestream constructors.

States are stored *interlaced* — ``q[vertex, component]`` with the
components of one vertex contiguous — which is the paper's tuned
layout (Sec. 2.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.euler.fluxes import GAMMA

__all__ = ["FlowState", "incompressible_freestream", "compressible_freestream",
           "INCOMPRESSIBLE_COMPONENTS", "COMPRESSIBLE_COMPONENTS"]

INCOMPRESSIBLE_COMPONENTS = ("p", "u", "v", "w")
COMPRESSIBLE_COMPONENTS = ("rho", "rhou", "rhov", "rhow", "E")


@dataclass
class FlowState:
    """Interlaced state array plus component metadata."""

    q: np.ndarray                 # (n, ncomp), C-contiguous
    components: tuple[str, ...]

    def __post_init__(self) -> None:
        self.q = np.ascontiguousarray(self.q, dtype=np.float64)
        if self.q.ndim != 2 or self.q.shape[1] != len(self.components):
            raise ValueError("state shape does not match components")

    @property
    def num_vertices(self) -> int:
        return self.q.shape[0]

    @property
    def ncomp(self) -> int:
        return self.q.shape[1]

    def flat(self) -> np.ndarray:
        """The interlaced 1-D unknown vector (used by the solvers)."""
        return self.q.ravel()

    def copy(self) -> "FlowState":
        return FlowState(q=self.q.copy(), components=self.components)


def incompressible_freestream(num_vertices: int, *,
                              alpha_deg: float = 3.0) -> FlowState:
    """Uniform incompressible freestream (p, u, v, w).

    Unit speed at angle of attack ``alpha_deg`` in the x-z plane; the
    reference pressure is zero (only gradients matter).
    """
    a = np.deg2rad(alpha_deg)
    vel = np.array([np.cos(a), 0.0, np.sin(a)])
    q = np.zeros((num_vertices, 4))
    q[:, 1:4] = vel
    return FlowState(q=q, components=INCOMPRESSIBLE_COMPONENTS)


def compressible_freestream(num_vertices: int, *, mach: float = 0.5,
                            alpha_deg: float = 3.0) -> FlowState:
    """Uniform compressible freestream in conservative variables, at
    unit density and pressure."""
    rho, pressure = 1.0, 1.0
    c = np.sqrt(GAMMA * pressure / rho)
    speed = mach * c
    a = np.deg2rad(alpha_deg)
    vel = speed * np.array([np.cos(a), 0.0, np.sin(a)])
    E = pressure / (GAMMA - 1.0) + 0.5 * rho * speed**2
    q = np.zeros((num_vertices, 5))
    q[:, 0] = rho
    q[:, 1:4] = rho * vel
    q[:, 4] = E
    return FlowState(q=q, components=COMPRESSIBLE_COMPONENTS)
