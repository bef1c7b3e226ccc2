"""Breadth-first traversals, connected components, peripheral nodes.

These are the primitives behind RCM ordering (level structures from a
pseudo-peripheral node), Schwarz overlap expansion (BFS rings), and the
subdomain-connectivity diagnostics used to explain the k-MeTiS versus
p-MeTiS convergence gap.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.sparse.segsum import concat_ranges

__all__ = [
    "bfs_levels",
    "bfs_queue",
    "sorted_adjacency",
    "connected_components",
    "pseudo_peripheral_node",
    "expand_overlap",
]


def bfs_levels(graph: Graph, roots) -> np.ndarray:
    """Vectorised multi-source BFS.

    Returns an int array ``level`` with ``level[v] = -1`` for vertices
    unreachable from ``roots`` and the BFS distance otherwise.  Each
    level is expanded in one gather over the frontier's adjacency rows;
    the unlevelled neighbours, once each, are the next frontier.
    """
    n = graph.num_vertices
    level = np.full(n, -1, dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)
    frontier = _first_occurrences(
        np.atleast_1d(np.asarray(roots, dtype=np.int64)), slot)
    level[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        nbrs = _gather_rows(graph.xadj, graph.adjncy, frontier)
        frontier = _first_occurrences(nbrs[level[nbrs] < 0], slot)
        level[frontier] = depth
    return level


def _first_occurrences(ids: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """``ids`` with each repeat dropped, first occurrences in order.

    ``slot`` is per-vertex int64 scratch of any content: each id's
    smallest position lands in its slot, so the cost is linear in
    ``ids`` whatever the graph's size.
    """
    pos = np.arange(ids.size, dtype=np.int64)
    slot[ids] = ids.size
    np.minimum.at(slot, ids, pos)
    return ids[slot[ids] == pos]


def _gather_rows(xadj: np.ndarray, adj: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
    """The adjacency rows of ``rows``, concatenated in that order."""
    starts = xadj[rows]
    return adj[concat_ranges(starts, xadj[rows + 1] - starts)]


def sorted_adjacency(graph: Graph) -> np.ndarray:
    """``graph.adjncy`` with every row sorted by ``(degree, id)``, the
    order a BFS enqueues its fresh neighbours in."""
    degree = graph.degrees()
    nbr = graph.adjncy
    row = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                    np.diff(graph.xadj))
    return nbr[np.lexsort((nbr, degree[nbr], row))]


def bfs_queue(xadj: np.ndarray, adj: np.ndarray, root: int,
              visited: np.ndarray) -> np.ndarray:
    """The FIFO queue of a BFS from ``root`` over the unvisited vertices,
    one level at a time; marks what it visits in ``visited``.

    The queue dequeues a level in order and each vertex enqueues its
    fresh neighbours in row order, so the next level is the level's
    rows, concatenated, without visited ids or repeats, each id at
    its first occurrence: a repeated arc or a neighbour shared with an
    earlier vertex of the level is the same repeat.
    """
    slot = np.empty(visited.size, dtype=np.int64)
    frontier = np.array([root], dtype=np.int64)
    visited[root] = True
    levels = [frontier]
    while frontier.size:
        nbrs = _gather_rows(xadj, adj, frontier)
        frontier = _first_occurrences(nbrs[~visited[nbrs]], slot)
        visited[frontier] = True
        levels.append(frontier)
    return np.concatenate(levels)


def connected_components(graph: Graph,
                         labels: np.ndarray | None = None) -> np.ndarray:
    """Label each vertex with its component id, numbered in the order of
    each component's smallest vertex (0-based).

    Given ``labels``, the components are those of the label-induced
    subgraphs, all parts at once: two vertices share an id iff they
    have the same label *and* are connected within it.  Min-label
    hooking over the intra-part edges with pointer jumping: each tree
    root hooks onto the smallest root across its crossing edges, so the
    last root standing is the component's smallest vertex.
    """
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    dst = graph.adjncy
    keep = src < dst
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        keep &= labels[src] == labels[dst]
    src, dst = src[keep], dst[keep]
    parent = np.arange(n, dtype=np.int64)
    while True:
        ru, rv = parent[src], parent[dst]
        cross = ru != rv  # an edge inside one tree stays inside it
        if not cross.any():
            break
        src, dst, ru, rv = src[cross], dst[cross], ru[cross], rv[cross]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        # Jump pointers until every tree is a star again.
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]
    root = parent == np.arange(n, dtype=np.int64)
    return (np.cumsum(root) - 1)[parent]


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
