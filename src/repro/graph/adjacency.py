"""CSR adjacency-list graph.

The :class:`Graph` here is the common currency between the mesh layer
(vertex connectivity of a tetrahedral mesh), the reordering codes
(RCM), and the partitioners.  It stores an undirected simple graph as
two int arrays ``xadj`` (row pointers, length ``n+1``) and ``adjncy``
(column indices, length ``2*nedges``), the exact format consumed by
MeTiS, with optional vertex and edge weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.segsum import run_starts, segment_sum

__all__ = ["Graph", "graph_from_edges", "graph_from_csr"]


@dataclass
class Graph:
    """Undirected graph in CSR adjacency form.

    Attributes
    ----------
    xadj:
        ``int64`` array of length ``n + 1``; neighbours of vertex ``v``
        are ``adjncy[xadj[v]:xadj[v+1]]``.
    adjncy:
        ``int64`` array of neighbour indices.  Every undirected edge
        appears twice (once from each endpoint).
    vwgt:
        Optional per-vertex weights (defaults to 1).
    ewgt:
        Optional per-adjacency-entry edge weights, aligned with
        ``adjncy``; symmetric entries must carry equal weight.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    vwgt: np.ndarray = field(default=None)  # type: ignore[assignment]
    ewgt: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.xadj = np.asarray(self.xadj, dtype=np.int64)
        self.adjncy = np.asarray(self.adjncy, dtype=np.int64)
        if self.xadj.ndim != 1 or self.xadj.size == 0:
            raise ValueError("xadj must be a 1-D array of length n+1")
        if self.xadj[0] != 0 or self.xadj[-1] != self.adjncy.size:
            raise ValueError("xadj must start at 0 and end at len(adjncy)")
        if np.any(np.diff(self.xadj) < 0):
            raise ValueError("xadj must be nondecreasing")
        n = self.num_vertices
        if self.adjncy.size and (self.adjncy.min() < 0 or self.adjncy.max() >= n):
            raise ValueError("adjncy entries out of range")
        if self.vwgt is None:
            self.vwgt = np.ones(n, dtype=np.int64)
        else:
            self.vwgt = np.asarray(self.vwgt, dtype=np.int64)
            if self.vwgt.shape != (n,):
                raise ValueError("vwgt must have one entry per vertex")
        if self.ewgt is None:
            self.ewgt = np.ones(self.adjncy.size, dtype=np.int64)
        else:
            self.ewgt = np.asarray(self.ewgt, dtype=np.int64)
            if self.ewgt.shape != self.adjncy.shape:
                raise ValueError("ewgt must align with adjncy")

    @property
    def num_vertices(self) -> int:
        return int(self.xadj.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored twice in adjncy)."""
        return int(self.adjncy.size // 2)

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.xadj)

    def edge_list(self) -> np.ndarray:
        """Return the unique undirected edges as an ``(m, 2)`` array with
        ``edge[:, 0] < edge[:, 1]``, sorted lexicographically."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(self.xadj))
        mask = src < self.adjncy
        pairs = np.stack([src[mask], self.adjncy[mask]], axis=1)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        return pairs[order]

    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Vertex-induced subgraph.

        Returns the subgraph and the array mapping new vertex index ->
        old vertex index (i.e. ``vertices`` itself, deduplicated and in
        the given order).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        n = self.num_vertices
        local = np.full(n, -1, dtype=np.int64)
        local[vertices] = np.arange(vertices.size)
        xadj = [0]
        adjncy: list[np.ndarray] = []
        ewgt: list[np.ndarray] = []
        for v in vertices:
            nbrs = self.neighbors(v)
            loc = local[nbrs]
            keep = loc >= 0
            adjncy.append(loc[keep])
            ewgt.append(self.ewgt[self.xadj[v] : self.xadj[v + 1]][keep])
            xadj.append(xadj[-1] + int(keep.sum()))
        sub = Graph(
            xadj=np.asarray(xadj, dtype=np.int64),
            adjncy=np.concatenate(adjncy) if adjncy else np.empty(0, dtype=np.int64),
            vwgt=self.vwgt[vertices],
            ewgt=np.concatenate(ewgt) if ewgt else np.empty(0, dtype=np.int64),
        )
        return sub, vertices


def graph_from_edges(num_vertices: int, edges: np.ndarray,
                     vwgt: np.ndarray | None = None,
                     ewgt: np.ndarray | None = None) -> Graph:
    """Build a :class:`Graph` from an ``(m, 2)`` unique undirected edge list.

    Self loops are rejected; duplicate edges (in either direction) are
    merged with their weights summed.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError("self loops are not allowed")
    if edges.size and (edges.min() < 0 or edges.max() >= num_vertices):
        raise ValueError("edge endpoint out of range")
    if ewgt is None:
        w = np.ones(edges.shape[0], dtype=np.int64)
    else:
        w = np.asarray(ewgt, dtype=np.int64)
    # Canonicalise and merge duplicates.
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    key = lo * np.int64(num_vertices) + hi
    uniq = np.sort(key)
    uniq = uniq[run_starts(uniq)]
    inverse = np.searchsorted(uniq, key)
    # Weight accumulation as a segment sum: integer weights sum exactly
    # through bincount's float64 accumulator (well under 2**53).
    wsum = segment_sum(inverse, w, uniq.size)
    lo = (uniq // num_vertices).astype(np.int64)
    hi = (uniq % num_vertices).astype(np.int64)
    # Symmetrise: each edge contributes two arcs.
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    aw = np.concatenate([wsum, wsum])
    order = np.lexsort((dst, src))
    src, dst, aw = src[order], dst[order], aw[order]
    xadj = np.zeros(num_vertices + 1, dtype=np.int64)
    # One-shot CSR xadj construction, not a hot path.
    np.add.at(xadj, src + 1, 1)
    np.cumsum(xadj, out=xadj)
    return Graph(xadj=xadj, adjncy=dst, vwgt=vwgt, ewgt=aw)


def graph_from_csr(indptr: np.ndarray, indices: np.ndarray) -> Graph:
    """Build a graph from a symmetric CSR sparsity pattern, dropping the
    diagonal.  Used to derive the adjacency graph of a Jacobian."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = indptr.size - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    mask = src != indices
    src, dst = src[mask], indices[mask]
    up = src < dst
    return graph_from_edges(n, np.stack([src[up], dst[up]], axis=1))
