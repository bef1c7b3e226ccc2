"""Multilevel k-way partitioning (the k-MeTiS analogue).

Pipeline: heavy-edge-matching coarsening until the graph is small,
greedy region growing for the initial k-way partition on the coarsest
graph (BFS from spread-out seeds, claiming vertices until each region
reaches its weight target — which strongly favours *connected*
subdomains), then projection back up the hierarchy with FM boundary
refinement at every level.

Like k-MeTiS, it accepts a few percent load imbalance in exchange for
connected, low-connectivity subdomains; the paper's Fig. 4 shows this
trade is the right one for NKS at scale.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.traversal import bfs_levels
from repro.partition.coarsen import CoarseLevel, coarsen_graph
from repro.partition.refine import fm_refine, repair_contiguity

__all__ = ["kway_partition", "grow_regions"]


def grow_regions(graph: Graph, nparts: int, seed: int = 0) -> np.ndarray:
    """Greedy region growing: k spread-out seeds, grow in rounds.

    Seeds are chosen by a farthest-point sweep (each new seed maximises
    the BFS distance to all previous seeds), then regions claim
    unassigned neighbours round-robin, lightest region first, which
    keeps the regions connected and roughly balanced.
    """
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    if nparts <= 1:
        return np.zeros(n, dtype=np.int64)

    # Farthest-point seed selection.
    seeds = [int(rng.integers(n))]
    dist = bfs_levels(graph, seeds)
    dist[dist < 0] = np.iinfo(np.int64).max  # unreachable: pick them early
    for _ in range(nparts - 1):
        cand = int(np.argmax(dist))
        seeds.append(cand)
        d_new = bfs_levels(graph, [cand])
        d_new[d_new < 0] = np.iinfo(np.int64).max
        dist = np.minimum(dist, d_new)

    labels = np.full(n, -1, dtype=np.int64)
    vwgt = graph.vwgt.astype(np.float64)
    weights = np.zeros(nparts)
    # Per-part FIFO of candidate vertices (may contain already-claimed
    # entries, skipped lazily).
    frontiers: list[list[int]] = [[] for _ in range(nparts)]
    for p, s in enumerate(seeds):
        if labels[s] < 0:
            labels[s] = p
            weights[p] += vwgt[s]
        frontiers[p] = [int(u) for u in graph.neighbors(s)]

    xadj, adjncy = graph.xadj, graph.adjncy
    remaining = int((labels < 0).sum())
    stalled: set[int] = set()
    while remaining > 0:
        if len(stalled) == nparts:
            # Disconnected leftovers: hand them to the lightest parts.
            for v in np.where(labels < 0)[0]:
                p = int(np.argmin(weights))
                labels[v] = p
                weights[p] += vwgt[v]
                frontiers[p].extend(int(u) for u in adjncy[xadj[v]:xadj[v + 1]])
                stalled.discard(p)
            remaining = 0
            break
        # The lightest non-stalled part claims exactly one vertex.
        order = np.argsort(weights)
        p = next(int(q) for q in order if int(q) not in stalled)
        frontier = frontiers[p]
        v = -1
        while frontier:
            cand = frontier.pop()
            if labels[cand] < 0:
                v = cand
                break
        if v < 0:
            stalled.add(p)
            continue
        labels[v] = p
        weights[p] += vwgt[v]
        frontier.extend(int(u) for u in adjncy[xadj[v]:xadj[v + 1]]
                        if labels[u] < 0)
        remaining -= 1
        stalled.clear()
    return labels


def kway_partition(graph: Graph, nparts: int, *, seed: int = 0,
                   engine: str = "numpy") -> np.ndarray:
    """Multilevel k-way partition; returns a label per vertex.
    Coarsening stops at ``max(20 * nparts, 200)`` vertices and every
    level gets six FM passes.  ``engine="compiled"`` runs the matching,
    the contraction, the refinement and the contiguity repair in C,
    label for label the numpy phases; :func:`grow_regions` stays numpy
    on both engines."""
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    n = graph.num_vertices
    if nparts == 1:
        return np.zeros(n, dtype=np.int64)
    if nparts > n:
        raise ValueError("more parts than vertices")
    coarsen_to = max(20 * nparts, 200)

    # --- coarsen ---------------------------------------------------
    levels: list[CoarseLevel] = []
    g = graph
    level_seed = seed
    while g.num_vertices > coarsen_to:
        lvl = coarsen_graph(g, seed=level_seed, engine=engine)
        level_seed += 1
        # Stop if coarsening stalls (matching found almost nothing).
        if lvl.graph.num_vertices > 0.95 * g.num_vertices:
            break
        levels.append(lvl)
        g = lvl.graph

    # --- initial partition on the coarsest graph --------------------
    labels = grow_regions(g, nparts, seed=seed)
    labels = fm_refine(g, labels, nparts, max_passes=6, engine=engine)

    # --- uncoarsen + refine -----------------------------------------
    # Level i coarsened parent graph: `graph` for i == 0, else the
    # coarse graph of level i-1.
    for i in range(len(levels) - 1, -1, -1):
        labels = labels[levels[i].fine_to_coarse]
        parent = graph if i == 0 else levels[i - 1].graph
        labels = fm_refine(parent, labels, nparts, max_passes=6,
                           engine=engine)
    # k-MeTiS-style contiguity enforcement, alternated with balance
    # touch-ups (fragment reassignment can overload a part, and
    # rebalancing can in turn strand a fragment).
    for _ in range(3):
        labels = repair_contiguity(graph, labels, nparts, engine=engine)
        labels = fm_refine(graph, labels, nparts, max_passes=2,
                           engine=engine)
    labels = repair_contiguity(graph, labels, nparts, engine=engine)
    return labels
