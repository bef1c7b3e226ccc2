"""Median-dual finite-volume metrics for edge-based discretisations.

FUN3D is a vertex-centred finite-volume code: each vertex owns the
median-dual control volume, and fluxes are exchanged across the dual
faces associated with mesh *edges*.  For edge (a, b) inside one tet,
the dual face is the (possibly non-planar) quadrilateral through the
edge midpoint, the centroids of the two faces containing the edge, and
the tet centroid.  Summing these per-tet quadrilateral area vectors
over all tets sharing the edge gives the edge's directed area ``s_ab``
(oriented from a to b).

Key discrete identity (tested as a property): for every vertex the
closed-surface condition holds,

    sum_{edges (v, j)} s_vj  (outward from v)  +  (boundary dual areas at v)  =  0,

which is what makes the edge-based flux loop conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.edges import TET_EDGE_LOCAL, boundary_faces, tet_edge_indices
from repro.mesh.mesh import Mesh

__all__ = ["DualMetrics", "compute_dual_metrics"]

# For local edge (a, b) of TET_EDGE_LOCAL, the two local faces sharing
# it are the faces opposite the two *other* vertices.  Store the two
# remaining local vertex ids (c, d) such that faces (a,b,c) and (a,b,d)
# are the ones adjacent to the edge.
_EDGE_OPPOSITE = np.array(
    [[2, 3], [1, 3], [1, 2], [0, 3], [0, 2], [0, 1]], dtype=np.int64
)
#: local corners (a, b, c, d) of each local edge
_EDGE_CORNERS = np.concatenate([TET_EDGE_LOCAL, _EDGE_OPPOSITE], axis=1)
#: tets per chunk of the dual-face pass: a few hundred KiB per array
_TET_CHUNK = 8192


@dataclass
class DualMetrics:
    """Geometric quantities of the median-dual tessellation.

    Attributes
    ----------
    edge_normals:
        ``(ne, 3)`` directed dual-face area vectors, oriented from
        ``edges[:,0]`` toward ``edges[:,1]``.
    dual_volumes:
        ``(n,)`` positive volume of each vertex's control volume; sums
        to the total mesh volume.
    bnd_faces:
        ``(nb, 3)`` boundary triangles (outward wound).
    bnd_vertex_normals:
        ``(n, 3)`` outward boundary area assigned to each vertex (zero
        for interior vertices); each boundary triangle contributes a
        third of its area vector to each of its corners.
    """

    edge_normals: np.ndarray
    dual_volumes: np.ndarray
    bnd_faces: np.ndarray
    bnd_vertex_normals: np.ndarray

    @property
    def boundary_vertices(self) -> np.ndarray:
        """Indices of vertices with nonzero boundary area."""
        mag = np.linalg.norm(self.bnd_vertex_normals, axis=1)
        return np.where(mag > 0)[0].astype(np.int64)


def compute_dual_metrics(mesh: Mesh) -> DualMetrics:
    """Compute median-dual metrics for ``mesh``.

    The tets are processed in chunks of ``_TET_CHUNK``, one local edge
    at a time on ``(chunk, 3)`` corner arrays, so the working set is
    bounded whatever the mesh size.  Every sum runs in tet-major,
    local-edge-minor order, the order of a single whole-mesh scatter.
    """
    p = mesh.coords
    tets = mesh.tets
    edges = mesh.edges
    n = mesh.num_vertices
    nt = mesh.num_tets

    # --- dual volumes: each vertex gets 1/4 of every incident tet ------
    vols = mesh.tet_volumes()
    if np.any(vols <= 0):
        raise ValueError("mesh has non-positive tet volumes")
    dual_volumes = np.bincount(tets.ravel(), weights=np.repeat(vols / 4.0, 4),
                               minlength=n)
    del vols

    # --- per-tet edge dual-face area vectors ---------------------------
    # Scattered onto global edges chunk by chunk, respecting the global
    # edge direction.
    eidx, esign = tet_edge_indices(tets, edges, n)     # (nt, 6) each
    edge_normals = np.zeros((edges.shape[0], 3))
    contrib = np.empty((3, min(nt, _TET_CHUNK), 6))
    for t0 in range(0, nt, _TET_CHUNK):
        t1 = min(t0 + _TET_CHUNK, nt)
        corners = [p[tets[t0:t1, k]] for k in range(4)]    # (m, 3) each
        # Tet centroid, summed in corner order as a mean over axis 1.
        ct = (((corners[0] + corners[1]) + corners[2]) + corners[3]) / 4.0
        out = contrib[:, : t1 - t0]
        for e in range(6):
            A, B, C, D = (corners[k] for k in _EDGE_CORNERS[e])
            ab = A + B
            mid = 0.5 * ab                     # edge midpoint
            f1 = (ab + C) / 3.0                # centroid of face (a, b, c)
            f2 = (ab + D) / 3.0                # centroid of face (a, b, d)
            # Dual face = quad (mid, f1, ct, f2); its area vector is half
            # the cross product of its diagonals (exact even for
            # non-planar quads).
            area = 0.5 * np.cross(ct - mid, f2 - f1)
            # Orient the contribution from a toward b, then along the
            # global edge.  The dot is the whole-mesh pass's einsum
            # reduction over X, so near-zero dots get the same sign.
            sign = np.sign(np.einsum("tX,tX->t", area, B - A))
            sign[sign == 0] = 1.0
            sign *= esign[t0:t1, e]
            out[:, :, e] = (area * sign[:, None]).T
        rows = eidx[t0:t1].ravel()
        for k in range(3):
            np.add.at(edge_normals[:, k], rows, out[k].ravel())
    del eidx, esign, contrib    # before boundary_faces' own peak

    # --- boundary dual areas -------------------------------------------
    bfaces = boundary_faces(tets)
    bnd_vertex_normals = np.zeros((n, 3))
    if bfaces.size:
        va = p[bfaces[:, 0]]
        vb = p[bfaces[:, 1]]
        vc = p[bfaces[:, 2]]
        face_area = 0.5 * np.cross(vb - va, vc - va)   # outward by winding
        third = face_area / 3.0
        # Corner-major: every face's first corner, then second, third.
        corner = bfaces.T.ravel()
        for k in range(3):
            bnd_vertex_normals[:, k] = np.bincount(
                corner, weights=np.tile(third[:, k], 3), minlength=n)

    return DualMetrics(
        edge_normals=edge_normals,
        dual_volumes=dual_volumes,
        bnd_faces=bfaces,
        bnd_vertex_normals=bnd_vertex_normals,
    )
