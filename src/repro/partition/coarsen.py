"""Multilevel coarsening by heavy-edge matching (HEM).

The standard MeTiS coarsening step: visit vertices in random order,
match each unmatched vertex with its unmatched neighbour of heaviest
edge weight, contract matched pairs.  Vertex weights accumulate so
balance on the coarse graph reflects balance on the fine graph; edge
weights accumulate so the coarse edge cut equals the fine edge cut of
the projected partition.

Both steps have a C twin behind the ``engine`` knob
(:func:`repro.kernels.heavy_edge_matching`,
:func:`repro.kernels.contract_graph`), bitwise the numpy phases here
(the ``*_ref`` functions); the visit order is drawn in numpy for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.graph.adjacency import Graph, graph_from_edges
from repro.sparse.segsum import run_starts

__all__ = ["heavy_edge_matching", "heavy_edge_matching_ref", "coarsen_graph",
           "contract_graph", "contract_graph_ref", "CoarseLevel"]


def heavy_edge_matching(graph: Graph, seed: int = 0,
                        engine: str = "numpy") -> np.ndarray:
    """Return ``match`` with ``match[v]`` = matched partner (or v itself).

    Symmetric: ``match[match[v]] == v``.  The visit order is
    ``default_rng(seed).permutation(n)``, drawn here for both engines;
    the compiled engine matches in C, bitwise
    :func:`heavy_edge_matching_ref`.
    """
    order = np.random.default_rng(seed).permutation(graph.num_vertices)
    match = kernels.heavy_edge_matching(graph.xadj, graph.adjncy,
                                        graph.ewgt, order, engine)
    return heavy_edge_matching_ref(graph, order) if match is None else match


def heavy_edge_matching_ref(graph: Graph, order: np.ndarray) -> np.ndarray:
    """The numpy matching in the visit ``order``: each unmatched vertex
    takes its unmatched neighbour of heaviest edge (the first on a tie,
    as ``np.argmax`` picks it), or itself."""
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
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


def coarsen_graph(graph: Graph, seed: int = 0,
                  engine: str = "numpy") -> CoarseLevel:
    """Contract a heavy-edge matching into a coarse graph."""
    match = heavy_edge_matching(graph, seed=seed, engine=engine)
    return contract_graph(graph, match, engine=engine)


def contract_graph(graph: Graph, match: np.ndarray,
                   engine: str = "numpy") -> CoarseLevel:
    """The coarse graph of ``match``; the compiled engine contracts in C,
    bitwise :func:`contract_graph_ref`."""
    out = kernels.contract_graph(graph.xadj, graph.adjncy, graph.vwgt,
                                 graph.ewgt, match, engine)
    if out is None:
        return contract_graph_ref(graph, match)
    fine_to_coarse, xadj, adjncy, vwgt, ewgt = out
    return CoarseLevel(graph=Graph(xadj=xadj, adjncy=adjncy, vwgt=vwgt,
                                   ewgt=ewgt),
                       fine_to_coarse=fine_to_coarse)


def contract_graph_ref(graph: Graph, match: np.ndarray) -> CoarseLevel:
    """The numpy contraction: matched pairs merge, vertex weights add,
    and fine edges project onto coarse ones, internal edges dropped and
    duplicates merged by :func:`~repro.graph.graph_from_edges`."""
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
