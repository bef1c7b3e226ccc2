"""Lightweight graph substrate used by mesh orderings and partitioners.

All graphs are undirected and stored in CSR (compressed sparse row)
adjacency form, mirroring the representation used inside MeTiS and
PETSc.  The modules here are pure numpy and are deliberately free of
any mesh/CFD knowledge so they can be tested in isolation.
"""

from repro.graph.adjacency import Graph, graph_from_edges, graph_from_csr
from repro.graph.traversal import (
    bfs_levels,
    connected_components,
    pseudo_peripheral_node,
)
from repro.graph.rcm import rcm_ordering, cuthill_mckee, bandwidth
from repro.graph.coloring import distance2_edge_coloring

__all__ = [
    "Graph",
    "graph_from_edges",
    "graph_from_csr",
    "bfs_levels",
    "connected_components",
    "pseudo_peripheral_node",
    "rcm_ordering",
    "cuthill_mckee",
    "bandwidth",
    "distance2_edge_coloring",
]
