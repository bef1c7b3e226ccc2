"""Vertex and edge orderings — the paper's Sec. 2.1.3 tuning knobs.

The paper's baseline FUN3D layout was tuned for vector machines: edges
ordered color-major (no two edges of a color share a vertex), which is
catastrophic for caches — ~70% of execution time went to TLB misses.
The tuned layout sorts edges by their first endpoint (turning the edge
loop into a quasi-vertex loop) after relabelling vertices with RCM.

This module exposes both families so the Table 1 / Fig. 3 experiments
can toggle them independently:

* vertex orderings: ``natural``, ``random``, ``rcm``
* edge orderings: ``sorted`` (by min endpoint, the paper's reordering),
  ``colored`` (vector-machine color-major — "NOER"), ``random``
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.graph.coloring import color_classes, distance2_edge_coloring
from repro.graph.rcm import rcm_ordering
from repro.mesh.mesh import Mesh

__all__ = ["VertexOrdering", "EdgeOrdering", "order_vertices", "order_edges",
           "apply_orderings"]


class VertexOrdering(str, Enum):
    NATURAL = "natural"
    RANDOM = "random"
    RCM = "rcm"


class EdgeOrdering(str, Enum):
    SORTED = "sorted"      # paper's edge reordering (vertex-based loop)
    COLORED = "colored"    # original FUN3D vector-machine layout ("NOER")
    RANDOM = "random"


def order_vertices(mesh: Mesh, kind: VertexOrdering | str,
                   seed: int = 0) -> np.ndarray:
    """Return a vertex permutation (new index -> old index)."""
    kind = VertexOrdering(kind)
    n = mesh.num_vertices
    if kind is VertexOrdering.NATURAL:
        return np.arange(n, dtype=np.int64)
    if kind is VertexOrdering.RANDOM:
        return np.random.default_rng(seed).permutation(n).astype(np.int64)
    if kind is VertexOrdering.RCM:
        return rcm_ordering(mesh.vertex_graph())
    raise ValueError(kind)


def order_edges(mesh: Mesh, kind: EdgeOrdering | str,
                seed: int = 0) -> np.ndarray:
    """Return an edge permutation (new position -> old edge index)."""
    kind = EdgeOrdering(kind)
    edges = mesh.edges
    m = edges.shape[0]
    if kind is EdgeOrdering.SORTED:
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        return np.lexsort((hi, lo)).astype(np.int64)
    if kind is EdgeOrdering.RANDOM:
        return np.random.default_rng(seed).permutation(m).astype(np.int64)
    if kind is EdgeOrdering.COLORED:
        colors = distance2_edge_coloring(edges, mesh.num_vertices)
        return np.concatenate(color_classes(colors)).astype(np.int64)
    raise ValueError(kind)


def apply_orderings(mesh: Mesh,
                    vertex: VertexOrdering | str = VertexOrdering.NATURAL,
                    edge: EdgeOrdering | str = EdgeOrdering.SORTED,
                    seed: int = 0) -> Mesh:
    """Apply a vertex relabelling then an edge reordering.

    The vertex ordering is applied first (it changes which edges are
    "close"), then edges are permuted; with ``sorted`` this reproduces
    the paper's tuned layout and with ``colored`` the vector baseline.
    Edge direction convention: after ``sorted``/``random`` ordering
    edges keep the (low, high) canonical direction.
    """
    out = mesh.permuted(order_vertices(mesh, vertex, seed=seed))
    eperm = order_edges(out, edge, seed=seed)
    return out.with_edges(out.edges[eperm],
                          name=f"{mesh.name}[v={VertexOrdering(vertex).value},"
                               f"e={EdgeOrdering(edge).value}]")
