"""The :class:`Mesh` container tying vertices, tets, and edges together."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.graph.adjacency import Graph, graph_from_edges

__all__ = ["Mesh"]


@dataclass
class Mesh:
    """Unstructured tetrahedral mesh.

    Attributes
    ----------
    coords:
        ``(n, 3)`` float64 vertex coordinates.
    tets:
        ``(nt, 4)`` int64 vertex indices of each tetrahedron, oriented
        so the signed volume is positive.
    edges:
        ``(ne, 2)`` int64 unique undirected edges, ``edges[:,0] <
        edges[:,1]`` unless an edge reordering has been applied.
    name:
        Human-readable tag used in experiment reports.
    """

    coords: np.ndarray
    tets: np.ndarray
    edges: np.ndarray
    name: str = "mesh"
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        self.tets = np.ascontiguousarray(self.tets, dtype=np.int64)
        self.edges = np.ascontiguousarray(self.edges, dtype=np.int64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError("coords must be (n, 3)")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise ValueError("tets must be (nt, 4)")
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise ValueError("edges must be (ne, 2)")

    @property
    def num_vertices(self) -> int:
        return self.coords.shape[0]

    @property
    def num_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def vertex_graph(self) -> Graph:
        """Vertex connectivity graph (one graph edge per mesh edge)."""
        key = "vertex_graph"
        if key not in self._cache:
            self._cache[key] = graph_from_edges(self.num_vertices, self.edges)
        return self._cache[key]

    def edge_scatter_index(self, end: int, trailing: int) -> np.ndarray:
        """Cached flattened scatter index for accumulating per-edge
        quantities with ``trailing`` components into vertex ``end``
        (0 or 1) of every edge — the index array feeding the
        bincount-based segmented sums of the flux/gradient loops."""
        key = ("edge_scatter", end, trailing)
        if key not in self._cache:
            from repro.sparse.segsum import flat_segment_index
            self._cache[key] = flat_segment_index(self.edges[:, end], trailing)
        return self._cache[key]

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached contiguous copies of the two columns of ``edges`` —
        what the compiled edge kernels take as pointers (a strided
        column view would be copied on every dispatch)."""
        key = "edge_endpoints"
        if key not in self._cache:
            self._cache[key] = (np.ascontiguousarray(self.edges[:, 0]),
                                np.ascontiguousarray(self.edges[:, 1]))
        return self._cache[key]

    def tet_volumes(self) -> np.ndarray:
        """Signed volumes of all tets (positive for valid orientation)."""
        p = self.coords
        t = self.tets
        a = p[t[:, 1]] - p[t[:, 0]]
        b = p[t[:, 2]] - p[t[:, 0]]
        c = p[t[:, 3]] - p[t[:, 0]]
        return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0

    @cached_property
    def average_degree(self) -> float:
        return 2.0 * self.num_edges / max(self.num_vertices, 1)

    def with_edges(self, edges: np.ndarray, name: str | None = None) -> "Mesh":
        """Copy of this mesh with a different edge array/order."""
        return Mesh(coords=self.coords, tets=self.tets, edges=edges,
                    name=name or self.name)

    def permuted(self, perm: np.ndarray, name: str | None = None) -> "Mesh":
        """Relabel vertices: new vertex ``i`` is old vertex ``perm[i]``.

        Coordinates, tets, and edges are all relabelled consistently;
        edges are re-canonicalised (low endpoint first) but keep their
        relative order, matching how a node reordering is applied before
        a separate edge reordering pass.
        """
        perm = np.asarray(perm, dtype=np.int64)
        n = self.num_vertices
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n, dtype=np.int64)
        edges = inv[self.edges]
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        return Mesh(
            coords=self.coords[perm],
            tets=inv[self.tets],
            edges=np.stack([lo, hi], axis=1),
            name=name or self.name,
        )

    def summary(self) -> str:
        return (f"Mesh '{self.name}': {self.num_vertices} vertices, "
                f"{self.num_edges} edges, {self.num_tets} tets, "
                f"avg degree {self.average_degree:.2f}")
