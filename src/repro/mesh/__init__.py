"""Unstructured tetrahedral mesh substrate.

The paper's workloads are NASA M6-wing tetrahedral meshes that we do
not have; this package generates synthetic unstructured tet meshes with
the same *graph-structural* characteristics (3-D vertex connectivity
~14 neighbours, surface-to-volume ratios of a 3-D domain, gradable
spacing) and computes the median-dual finite-volume metrics (edge area
vectors, dual volumes, boundary normals) that the edge-based FUN3D
discretisation needs.  See DESIGN.md for the substitution rationale.
"""

from repro.mesh.tetgen import (
    box_mesh,
    wing_mesh,
    bump_mesh,
    unit_cube_mesh,
    shuffle_vertices,
)
from repro.mesh.mesh import Mesh
from repro.mesh.edges import edges_from_tets, boundary_faces
from repro.mesh.dualmesh import DualMetrics, compute_dual_metrics
from repro.mesh.orderings import (
    EdgeOrdering,
    VertexOrdering,
    order_vertices,
    order_edges,
    apply_orderings,
)
from repro.mesh.metrics import mesh_locality_report, edge_span_stats

__all__ = [
    "Mesh",
    "box_mesh",
    "wing_mesh",
    "bump_mesh",
    "unit_cube_mesh",
    "shuffle_vertices",
    "edges_from_tets",
    "boundary_faces",
    "DualMetrics",
    "compute_dual_metrics",
    "EdgeOrdering",
    "VertexOrdering",
    "order_vertices",
    "order_edges",
    "apply_orderings",
    "mesh_locality_report",
    "edge_span_stats",
]
