"""Compressible Euler in conservative variables (5 DOFs/vertex)."""

from __future__ import annotations

import numpy as np

from repro.euler.boundary import BoundaryCondition
from repro.euler.discretization import EdgeFVDiscretization
from repro.euler.fluxes import (GAMMA, compressible_flux,
                                compressible_flux_jacobian,
                                compressible_wavespeed)
from repro.euler.reconstruction import Limiter
from repro.euler.state import COMPRESSIBLE_COMPONENTS, FlowState
from repro.mesh.dualmesh import DualMetrics
from repro.mesh.mesh import Mesh

__all__ = ["CompressibleEuler"]


class CompressibleEuler(EdgeFVDiscretization):
    """Compressible Euler: q = (rho, rho u, rho v, rho w, E) per vertex.

    ``flux_scheme`` selects the interface flux: ``"rusanov"`` (robust,
    dissipative — the default) or ``"roe"`` (FUN3D's production
    flux-difference splitting; sharper contacts and shocks).
    """

    ncomp = 5
    components = COMPRESSIBLE_COMPONENTS
    gamma = GAMMA

    def __init__(self, mesh: Mesh, bc: BoundaryCondition,
                 dual: DualMetrics | None = None, *,
                 farfield: FlowState | np.ndarray | None = None,
                 second_order: bool = True,
                 flux_scheme: str = "rusanov",
                 limiter: Limiter | str = Limiter.VAN_ALBADA) -> None:
        super().__init__(mesh, bc, dual, second_order=second_order,
                         limiter=limiter)
        if flux_scheme not in ("rusanov", "roe"):
            raise ValueError(f"unknown flux scheme {flux_scheme!r}")
        self.flux_scheme = flux_scheme
        if farfield is not None:
            self.set_farfield(farfield)

    def _numerical_flux(self, ql, qr, s):
        if self.flux_scheme == "roe":
            from repro.euler.roe import roe_flux
            return roe_flux(ql, qr, s)
        return super()._numerical_flux(ql, qr, s)

    def set_farfield(self, state: FlowState | np.ndarray) -> None:
        if isinstance(state, FlowState):
            self.farfield_state = state.q[0].copy()
        else:
            self.farfield_state = np.asarray(state, dtype=np.float64).reshape(5)

    # -- flux family -------------------------------------------------------
    def _flux(self, q, s):
        return compressible_flux(q, s)

    def _flux_jacobian(self, q, s):
        return compressible_flux_jacobian(q, s)

    def _wavespeed(self, q, s):
        return compressible_wavespeed(q, s)

    def _pressure(self, q):
        rho = q[:, 0]
        ke = 0.5 * np.einsum("ij,ij->i", q[:, 1:4], q[:, 1:4]) / rho
        return (self.gamma - 1.0) * (q[:, 4] - ke)

    def _wall_flux(self, q, n):
        """Slip wall: no mass/energy flux; pressure on momentum."""
        q = np.atleast_2d(q)
        n = np.atleast_2d(n)
        f = np.zeros_like(q)
        f[:, 1:4] = self._pressure(q)[:, None] * n
        return f

    def _wall_flux_jacobian(self, q, n):
        q = np.atleast_2d(q)
        n = np.atleast_2d(n)
        g1 = self.gamma - 1.0
        rho = q[:, 0]
        vel = q[:, 1:4] / rho[:, None]
        phi = 0.5 * g1 * np.einsum("ij,ij->i", vel, vel)
        # dp/dq = (phi, -g1*u, -g1*v, -g1*w, g1)
        dp = np.empty((q.shape[0], 5))
        dp[:, 0] = phi
        dp[:, 1:4] = -g1 * vel
        dp[:, 4] = g1
        j = np.zeros((q.shape[0], 5, 5))
        j[:, 1:4, :] = n[:, :, None] * dp[:, None, :]
        return j
