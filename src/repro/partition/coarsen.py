"""Multilevel coarsening by heavy-edge matching (HEM).

The standard MeTiS coarsening step: visit vertices in random order,
match each unmatched vertex with its unmatched neighbour of heaviest
edge weight, contract matched pairs.  Vertex weights accumulate so
balance on the coarse graph reflects balance on the fine graph; edge
weights accumulate so the coarse edge cut equals the fine edge cut of
the projected partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.adjacency import Graph, graph_from_edges
from repro.sparse.segsum import run_starts

__all__ = ["heavy_edge_matching", "coarsen_graph", "CoarseLevel"]


def heavy_edge_matching(graph: Graph, seed: int = 0) -> np.ndarray:
    """Return ``match`` with ``match[v]`` = matched partner (or v itself).

    Symmetric: ``match[match[v]] == v``.
    """
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    xadj, adjncy, ewgt = graph.xadj, graph.adjncy, graph.ewgt
    for v in order:
        if match[v] >= 0:
            continue
        s, e = xadj[v], xadj[v + 1]
        nbrs = adjncy[s:e]
        w = ewgt[s:e]
        free = match[nbrs] < 0
        cand = nbrs[free]
        if cand.size:
            u = int(cand[np.argmax(w[free])])
            match[v] = u
            match[u] = v
        else:
            match[v] = v
    return match


@dataclass
class CoarseLevel:
    """One level of the multilevel hierarchy."""

    graph: Graph           # the coarse graph
    fine_to_coarse: np.ndarray   # map fine vertex -> coarse vertex


def coarsen_graph(graph: Graph, seed: int = 0) -> CoarseLevel:
    """Contract a heavy-edge matching into a coarse graph."""
    match = heavy_edge_matching(graph, seed=seed)
    n = graph.num_vertices
    # Assign coarse ids: the lower-indexed partner of each pair names it.
    rep = np.minimum(np.arange(n, dtype=np.int64), match)
    uniq = np.sort(rep)
    uniq = uniq[run_starts(uniq)]
    fine_to_coarse = np.searchsorted(uniq, rep)
    nc = uniq.size
    # Coarse vertex weights.
    cvwgt = np.zeros(nc, dtype=np.int64)
    np.add.at(cvwgt, fine_to_coarse, graph.vwgt)
    # Coarse edges: project fine edges, drop internal, merge duplicates.
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    cs = fine_to_coarse[src]
    cd = fine_to_coarse[graph.adjncy]
    keep = (cs < cd)  # one direction only, excludes contracted edges
    if keep.any():
        coarse = graph_from_edges(nc, np.stack([cs[keep], cd[keep]], axis=1),
                                  vwgt=cvwgt, ewgt=graph.ewgt[keep])
    else:
        coarse = Graph(xadj=np.zeros(nc + 1, dtype=np.int64),
                       adjncy=np.empty(0, dtype=np.int64), vwgt=cvwgt)
    return CoarseLevel(graph=coarse, fine_to_coarse=fine_to_coarse)
