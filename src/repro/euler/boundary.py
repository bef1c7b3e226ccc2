"""Boundary conditions: inviscid wall (slip) and characteristic farfield.

Boundary fluxes are applied *weakly* through the per-vertex boundary
dual areas (``DualMetrics.bnd_vertex_normals``): each boundary vertex
receives one boundary flux evaluated with its accumulated outward area
vector.

* **wall** (slip): no flow through the surface; only pressure works on
  the momentum equations.  For compressible flow the mass and energy
  fluxes also vanish.
* **farfield**: a Rusanov flux between the interior state and the
  frozen freestream state — the simple characteristic treatment that
  is transparent for outgoing waves and imposes the freestream on
  incoming ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.dualmesh import DualMetrics
from repro.mesh.mesh import Mesh

__all__ = ["BoundaryCondition", "classify_box_boundary"]

#: (x, y) extents of the wall patch on a box mesh's z=0 face
_WALL_REGION = ((0.2, 0.8), (0.2, 0.8))


@dataclass
class BoundaryCondition:
    """Per-boundary-vertex BC data.

    Attributes
    ----------
    vertices:
        Boundary vertex indices (those with nonzero boundary area).
    normals:
        Their outward area vectors, aligned with ``vertices``.
    kinds:
        0 = wall, 1 = farfield (int codes for vectorised masking).
    """

    vertices: np.ndarray
    normals: np.ndarray
    kinds: np.ndarray

    WALL = 0
    FARFIELD = 1

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.int64)
        self.normals = np.asarray(self.normals, dtype=np.float64)
        self.kinds = np.asarray(self.kinds, dtype=np.int64)
        if not (self.vertices.size == self.normals.shape[0] == self.kinds.size):
            raise ValueError("misaligned boundary arrays")

    @property
    def wall_mask(self) -> np.ndarray:
        return self.kinds == self.WALL

    @property
    def farfield_mask(self) -> np.ndarray:
        return self.kinds == self.FARFIELD

    def row_sets(self) -> tuple:
        """The wall / far-field split, as the row sets the boundary
        closures read: ``(wall_rows, wall_idx, far_rows, far_idx)``.

        ``*_idx`` are positions in ``vertices`` (in ``vertices``
        order), ``*_rows`` the vertices they address.
        """
        widx = np.flatnonzero(self.wall_mask)
        fidx = np.flatnonzero(self.farfield_mask)
        return self.vertices[widx], widx, self.vertices[fidx], fidx

    def permuted(self, inv: np.ndarray) -> "BoundaryCondition":
        """Relabel vertex indices through ``inv`` (old -> new)."""
        return BoundaryCondition(vertices=np.asarray(inv)[self.vertices],
                                 normals=self.normals, kinds=self.kinds)


def classify_box_boundary(mesh: Mesh, dual: DualMetrics) -> BoundaryCondition:
    """Classify a box mesh's boundary: the ``_WALL_REGION`` patch of the
    z=0 face is the (wing-like) wall; everything else is farfield."""
    verts = dual.boundary_vertices
    normals = dual.bnd_vertex_normals[verts]
    kinds = np.full(verts.size, BoundaryCondition.FARFIELD, dtype=np.int64)
    c = mesh.coords[verts]
    (x0, x1), (y0, y1) = _WALL_REGION
    zmin = mesh.coords[:, 2].min()
    on_floor = np.abs(c[:, 2] - zmin) < 1e-9
    in_patch = ((c[:, 0] >= x0) & (c[:, 0] <= x1)
                & (c[:, 1] >= y0) & (c[:, 1] <= y1))
    kinds[on_floor & in_patch] = BoundaryCondition.WALL
    return BoundaryCondition(vertices=verts, normals=normals, kinds=kinds)
