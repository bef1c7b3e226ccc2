"""Reverse Cuthill-McKee ordering and the bandwidth it reduces.

The paper (Sec. 2.1.3) uses RCM for vertex ordering because a
bandwidth-reducing ordering turns the Jacobian into a narrow-band
matrix, which both the conflict-miss bound (paper Eq. 2) and the TLB
behaviour reward.  We implement RCM from scratch (scipy's
``reverse_cuthill_mckee`` is used only as a test oracle).
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.traversal import (bfs_queue, pseudo_peripheral_node,
                                   sorted_adjacency)

__all__ = ["cuthill_mckee", "rcm_ordering", "bandwidth"]


def cuthill_mckee(graph: Graph) -> np.ndarray:
    """Cuthill-McKee ordering: ``perm[i]`` = old index of new vertex i.

    Handles disconnected graphs by restarting from a pseudo-peripheral
    node of each unvisited component, in ascending seed order.
    """
    n = graph.num_vertices
    adj = sorted_adjacency(graph)
    visited = np.zeros(n, dtype=bool)
    parts = []
    filled, seed = 0, 0
    while filled < n:
        # The smallest unvisited vertex: seeds only move forward.
        seed += int(np.argmin(visited[seed:]))
        # pseudo_peripheral_node explores only seed's component, which
        # by construction contains no visited vertices yet.
        root = pseudo_peripheral_node(graph, seed)
        parts.append(bfs_queue(graph.xadj, adj, root, visited))
        filled += parts[-1].size
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def rcm_ordering(graph: Graph) -> np.ndarray:
    """Reverse Cuthill-McKee: the CM order reversed, the classical
    envelope-reducing ordering of George & Liu."""
    return cuthill_mckee(graph)[::-1].copy()


def bandwidth(graph: Graph) -> int:
    """Matrix bandwidth ``max |i - j|`` over edges."""
    edges = graph.edge_list()
    if edges.size == 0:
        return 0
    return int(np.abs(edges[:, 0] - edges[:, 1]).max())

