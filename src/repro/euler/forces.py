"""Aerodynamic force integration on wall boundaries.

FUN3D's purpose is design optimisation: the quantities fed back to the
optimiser are the integrated wall forces (lift/drag coefficients).
For the inviscid (Euler) discretisations here, the force on the wall
is the integral of pressure over the wall's outward area vectors —
which are exactly the weak-BC boundary normals already carried by the
BoundaryCondition, so the discrete force is consistent with the
scheme's own wall flux.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.euler.boundary import BoundaryCondition
from repro.euler.compressible import CompressibleEuler
from repro.euler.discretization import EdgeFVDiscretization
from repro.euler.incompressible import IncompressibleEuler

__all__ = ["WallForces", "wall_pressure", "integrate_wall_forces"]


@dataclass
class WallForces:
    """Integrated pressure force and the usual aerodynamic split."""

    force: np.ndarray            # (3,) pressure force on the wall
    lift: float                  # component normal to the freestream
    drag: float                  # component along the freestream
    reference: float             # q_inf * S_ref used for coefficients


def wall_pressure(disc: EdgeFVDiscretization, qflat: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(wall vertex indices, pressure at them) for any flow model."""
    q = qflat.reshape(-1, disc.ncomp)
    bc = disc.bc
    wall = bc.vertices[bc.wall_mask]
    if isinstance(disc, IncompressibleEuler):
        p = q[wall, 0]
    elif isinstance(disc, CompressibleEuler):
        rho = q[wall, 0]
        ke = 0.5 * np.einsum("ij,ij->i", q[wall, 1:4], q[wall, 1:4]) / rho
        p = (disc.gamma - 1.0) * (q[wall, 4] - ke)
    else:
        raise TypeError(f"unsupported discretisation {type(disc)}")
    return wall, p


def _freestream_direction(disc: EdgeFVDiscretization) -> np.ndarray:
    if disc.farfield_state is None:
        raise RuntimeError("farfield state is not set")
    fs = disc.farfield_state
    if isinstance(disc, IncompressibleEuler):
        v = fs[1:4]
    else:
        v = fs[1:4] / fs[0]
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("freestream velocity is zero")
    return v / norm


def _freestream_pressure(disc: EdgeFVDiscretization) -> float:
    fs = disc.farfield_state
    if isinstance(disc, IncompressibleEuler):
        return float(fs[0])
    rho = fs[0]
    ke = 0.5 * float(fs[1:4] @ fs[1:4]) / rho
    return (disc.gamma - 1.0) * (float(fs[4]) - ke)


def _dynamic_pressure(disc: EdgeFVDiscretization) -> float:
    fs = disc.farfield_state
    if isinstance(disc, IncompressibleEuler):
        return 0.5 * float(fs[1:4] @ fs[1:4])          # rho == 1
    rho = fs[0]
    v = fs[1:4] / rho
    return 0.5 * float(rho * (v @ v))


def integrate_wall_forces(disc: EdgeFVDiscretization, qflat: np.ndarray, *,
                          lift_axis: np.ndarray | None = None,
                          s_ref: float | None = None) -> WallForces:
    """Integrate the (gauge-corrected) wall pressure force.

    The freestream pressure is subtracted before integration so the
    force is the aerodynamic perturbation force (a closed surface at
    uniform pressure carries none); drag is the component along the
    freestream direction, lift the component along ``lift_axis``
    projected normal to it (default: z).
    """
    bc: BoundaryCondition = disc.bc
    wall, p = wall_pressure(disc, qflat)
    normals = bc.normals[bc.wall_mask]
    if wall.size == 0:
        raise ValueError("the problem has no wall boundary")
    # Gauge: measure pressure relative to the freestream's.
    dp = p - _freestream_pressure(disc)
    force = (dp[:, None] * normals).sum(axis=0)

    drag_dir = _freestream_direction(disc)
    up = np.array([0.0, 0.0, 1.0]) if lift_axis is None \
        else np.asarray(lift_axis, dtype=np.float64)
    up = up - (up @ drag_dir) * drag_dir
    nup = np.linalg.norm(up)
    if nup < 1e-12:
        raise ValueError("lift axis is parallel to the freestream")
    up /= nup

    if s_ref is None:
        s_ref = float(np.linalg.norm(normals, axis=1).sum())
    qdyn = _dynamic_pressure(disc)
    return WallForces(force=force,
                      lift=float(force @ up),
                      drag=float(force @ drag_dir),
                      reference=max(qdyn * s_ref, 1e-300))
