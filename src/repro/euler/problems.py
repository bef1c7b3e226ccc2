"""Canned flow problems: the experiment workloads.

``wing_problem`` is the stand-in for the paper's M6-wing cases: a
graded "wing" mesh, a slip-wall patch on the floor (the planform), a
farfield box, and a small angle of attack, in incompressible (4
DOFs/vertex) or compressible (5 DOFs/vertex) form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.euler.boundary import BoundaryCondition, classify_box_boundary
from repro.euler.compressible import CompressibleEuler
from repro.euler.discretization import EdgeFVDiscretization
from repro.euler.incompressible import IncompressibleEuler
from repro.euler.reconstruction import Limiter
from repro.euler.state import (FlowState, compressible_freestream,
                               incompressible_freestream)
from repro.mesh.dualmesh import compute_dual_metrics
from repro.mesh.mesh import Mesh
from repro.mesh.orderings import EdgeOrdering, VertexOrdering, apply_orderings
from repro.mesh.tetgen import wing_mesh

__all__ = ["FlowProblem", "wing_problem", "transonic_bump_problem"]

#: the bump channel's streamwise vertex count and freestream Mach number
_BUMP_NX, _BUMP_MACH = 17, 0.84


@dataclass
class FlowProblem:
    """A mesh + discretisation + initial state bundle."""

    mesh: Mesh
    disc: EdgeFVDiscretization
    initial: FlowState
    name: str

    @property
    def num_unknowns(self) -> int:
        return self.disc.num_unknowns


def wing_problem(nx: int = 13, ny: int = 9, nz: int = 7, *,
                 compressible: bool = False, mach: float = 0.5,
                 alpha_deg: float = 3.0, beta_ac: float = 10.0,
                 second_order: bool = True,
                 limiter: Limiter | str = Limiter.VAN_ALBADA,
                 vertex_ordering: VertexOrdering | str = VertexOrdering.RCM,
                 edge_ordering: EdgeOrdering | str = EdgeOrdering.SORTED,
                 seed: int = 0) -> FlowProblem:
    """Wing-in-a-box flow, the M6 stand-in (see DESIGN.md)."""
    mesh = wing_mesh(nx, ny, nz, seed=seed)
    mesh = apply_orderings(mesh, vertex_ordering, edge_ordering, seed=seed)
    dual = compute_dual_metrics(mesh)
    bc = classify_box_boundary(mesh, dual)
    n = mesh.num_vertices
    if compressible:
        fs = compressible_freestream(n, mach=mach, alpha_deg=alpha_deg)
        disc: EdgeFVDiscretization = CompressibleEuler(
            mesh, bc, dual, farfield=fs, second_order=second_order,
            limiter=limiter)
        name = f"wing-compressible-{n}v"
    else:
        fs = incompressible_freestream(n, alpha_deg=alpha_deg)
        disc = IncompressibleEuler(mesh, bc, dual, beta=beta_ac,
                                   farfield=fs, second_order=second_order,
                                   limiter=limiter)
        name = f"wing-incompressible-{n}v"
    return FlowProblem(mesh=mesh, disc=disc, initial=fs, name=name)


def transonic_bump_problem(*, ny: int = 5, nz: int = 9,
                           limiter: Limiter | str = Limiter.VAN_ALBADA,
                           flux_scheme: str = "rusanov") -> FlowProblem:
    """Transonic channel-bump flow: the shocked workload of Sec. 2.4.1.

    Compressible flow at a near-critical Mach number (0.84) over a
    cosine bump ``_BUMP_NX`` vertices long; above M ~ 0.7-0.8 a
    supersonic pocket forms over the bump and is closed by a shock on
    the lee side.  This is the flow regime for
    which the paper starts first-order, damps the SER exponent to 0.75,
    and switches to second order only after the shock position settles:
    the discretisation starts first order.

    The bump floor is a slip wall; all other boundaries are farfield
    (inflow/outflow are handled characteristically by the Rusanov
    farfield flux).
    """
    from repro.mesh.tetgen import _bump_floor, bump_mesh

    mesh = bump_mesh(_BUMP_NX, ny, nz)
    dual = compute_dual_metrics(mesh)
    verts = dual.boundary_vertices
    c = mesh.coords[verts]
    on_floor = np.abs(c[:, 2] - _bump_floor(c[:, 0])) < 1e-9
    kinds = np.full(verts.size, BoundaryCondition.FARFIELD, dtype=np.int64)
    kinds[on_floor] = BoundaryCondition.WALL
    bc = BoundaryCondition(vertices=verts,
                           normals=dual.bnd_vertex_normals[verts],
                           kinds=kinds)
    fs = compressible_freestream(mesh.num_vertices, mach=_BUMP_MACH,
                                 alpha_deg=0.0)
    disc = CompressibleEuler(mesh, bc, dual, farfield=fs,
                             second_order=False,
                             flux_scheme=flux_scheme, limiter=limiter)
    return FlowProblem(mesh=mesh, disc=disc, initial=fs,
                       name=f"bump-M{_BUMP_MACH:g}-{mesh.num_vertices}v")
