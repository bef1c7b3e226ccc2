"""Breadth-first traversals, connected components, peripheral nodes.

These are the primitives behind RCM ordering (level structures from a
pseudo-peripheral node), Schwarz overlap expansion (BFS rings), and the
subdomain-connectivity diagnostics used to explain the k-MeTiS versus
p-MeTiS convergence gap.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph

__all__ = [
    "bfs_levels",
    "bfs_order",
    "connected_components",
    "component_sizes",
    "pseudo_peripheral_node",
    "expand_overlap",
]


def bfs_levels(graph: Graph, roots) -> np.ndarray:
    """Vectorised multi-source BFS.

    Returns an int array ``level`` with ``level[v] = -1`` for vertices
    unreachable from ``roots`` and the BFS distance otherwise.  The
    frontier expansion is done with numpy set operations so large
    graphs stay fast in pure Python.
    """
    n = graph.num_vertices
    level = np.full(n, -1, dtype=np.int64)
    frontier = np.unique(np.atleast_1d(np.asarray(roots, dtype=np.int64)))
    level[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        # Gather all neighbours of the frontier in one shot.
        starts = graph.xadj[frontier]
        ends = graph.xadj[frontier + 1]
        counts = ends - starts
        if counts.sum() == 0:
            break
        idx = _ranges_concat(starts, counts)
        nbrs = graph.adjncy[idx]
        nbrs = np.unique(nbrs)
        frontier = nbrs[level[nbrs] < 0]
        level[frontier] = depth
    return level


def _ranges_concat(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ranges [starts[i], starts[i]+counts[i]) vectorised."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    out[offsets] = starts
    out[offsets[1:]] -= starts[:-1] + counts[:-1] - 1
    return np.cumsum(out)


def bfs_order(graph: Graph, root: int, tie_break: np.ndarray | None = None) -> np.ndarray:
    """Sequential BFS visiting order from ``root`` within its component.

    Neighbours are enqueued sorted by ``tie_break`` (default: vertex
    degree, the Cuthill-McKee rule).  Returns the visited vertices in
    order; unreachable vertices are absent.
    """
    n = graph.num_vertices
    if tie_break is None:
        tie_break = graph.degrees()
    xadj, nbr = graph.xadj, graph.adjncy
    # Every adjacency row sorted once by (tie_break, id), the order its
    # fresh neighbours are enqueued in; a repeated arc lands next to its
    # twin, so one neighbour comparison drops it.
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(xadj))
    adj = nbr[np.lexsort((nbr, tie_break[nbr], row))]
    repeats = bool(np.any((adj[1:] == adj[:-1]) & (row[1:] == row[:-1])))
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    order[0] = root
    visited[root] = True
    head, tail = 0, 1
    while head < tail:
        v = order[head]
        head += 1
        nbrs = adj[xadj[v]:xadj[v + 1]]
        fresh = nbrs[~visited[nbrs]]
        if fresh.size:
            if repeats:
                fresh = fresh[np.concatenate(([True],
                                              fresh[1:] != fresh[:-1]))]
            visited[fresh] = True
            order[tail : tail + fresh.size] = fresh
            tail += fresh.size
    return order[:tail]


def connected_components(graph: Graph) -> np.ndarray:
    """Label each vertex with its component id (0-based, by discovery)."""
    n = graph.num_vertices
    comp = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for seed in range(n):
        if comp[seed] >= 0:
            continue
        level = bfs_levels(graph, [seed])
        # Restrict to vertices not yet assigned: bfs_levels explores the
        # whole component of `seed`, which is disjoint from previous ones.
        members = np.where((level >= 0) & (comp < 0))[0]
        comp[members] = next_id
        next_id += 1
    return comp


def component_sizes(graph: Graph) -> np.ndarray:
    comp = connected_components(graph)
    return np.bincount(comp)


def pseudo_peripheral_node(graph: Graph, start: int = 0) -> int:
    """George-Liu pseudo-peripheral node search.

    Repeatedly jump to a minimum-degree vertex in the deepest BFS level
    until the eccentricity stops growing; this is the classical RCM
    starting-node heuristic.
    """
    deg = graph.degrees()
    v = int(start)
    level = bfs_levels(graph, [v])
    ecc = int(level.max())
    while True:
        deepest = np.where(level == ecc)[0]
        u = int(deepest[np.argmin(deg[deepest])])
        lvl_u = bfs_levels(graph, [u])
        ecc_u = int(lvl_u.max())
        if ecc_u <= ecc:
            return u
        v, level, ecc = u, lvl_u, ecc_u


def expand_overlap(graph: Graph, core: np.ndarray, overlap: int) -> np.ndarray:
    """Expand a vertex set by ``overlap`` BFS rings.

    This is exactly how an Additive Schwarz subdomain with overlap
    ``delta`` is constructed from a zero-overlap partition: the owned
    vertices plus ``delta`` layers of neighbours.
    Returns the expanded set sorted ascending.
    """
    core = np.unique(np.asarray(core, dtype=np.int64))
    if overlap <= 0 or core.size == 0:
        return core
    level = bfs_levels(graph, core)
    return np.where((level >= 0) & (level <= overlap))[0].astype(np.int64)
