"""Edge coloring.

The *original* FUN3D edge coloring for vector machines: no two edges
in one color share a vertex (a proper edge coloring), so a whole color
class can be processed as one vector operation without read-after-write
hazards.  This is the cache-hostile "NOER" layout of Fig. 3:
consecutive edges in memory touch unrelated vertices.
"""

from __future__ import annotations

import numpy as np

__all__ = ["distance2_edge_coloring", "color_classes"]


def distance2_edge_coloring(edges: np.ndarray, num_vertices: int) -> np.ndarray:
    """Proper edge coloring: edges sharing a vertex get distinct colors.

    Implemented greedily over edges in the given order; returns one
    color id per edge.  This reproduces FUN3D's original vector-machine
    edge coloring, whose color-major edge ordering destroys vertex-data
    locality (the "NOER" configuration of Fig. 3).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    m = edges.shape[0]
    colors = np.full(m, -1, dtype=np.int64)
    # For each vertex, the set of colors already incident to it, kept as
    # a bitset in a python int for compactness (degrees are small).
    incident = [0] * num_vertices
    for e in range(m):
        a, b = int(edges[e, 0]), int(edges[e, 1])
        taken = incident[a] | incident[b]
        c = 0
        while taken >> c & 1:
            c += 1
        colors[e] = c
        bit = 1 << c
        incident[a] |= bit
        incident[b] |= bit
    return colors


def color_classes(colors: np.ndarray) -> list[np.ndarray]:
    """Group item indices by color, ascending color id."""
    colors = np.asarray(colors, dtype=np.int64)
    order = np.argsort(colors, kind="stable")
    sorted_colors = colors[order]
    boundaries = np.flatnonzero(np.diff(sorted_colors)) + 1
    return np.split(order, boundaries)
