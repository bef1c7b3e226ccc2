"""Edge and boundary-face extraction from tetrahedra (vectorised)."""

from __future__ import annotations

import numpy as np

__all__ = ["edges_from_tets", "boundary_faces", "tet_edge_indices", "TET_EDGE_LOCAL"]

# The 6 local edges of a tet (pairs of local vertex indices 0..3).
TET_EDGE_LOCAL = np.array(
    [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], dtype=np.int64
)

# The 4 local faces of a tet, each opposite the omitted vertex, wound so
# the normal points OUT of the tet when the tet has positive volume.
TET_FACE_LOCAL = np.array(
    [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]], dtype=np.int64
)


def edges_from_tets(tets: np.ndarray, num_vertices: int) -> np.ndarray:
    """Unique undirected edges of a tet mesh, canonicalised and sorted.

    Returns an ``(ne, 2)`` int64 array with ``e[:,0] < e[:,1]``,
    lexicographically sorted — the "natural" edge order.
    """
    tets = np.asarray(tets, dtype=np.int64)
    pairs = tets[:, TET_EDGE_LOCAL].reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    key = lo * np.int64(num_vertices) + hi
    uniq = np.unique(key)
    return np.stack([uniq // num_vertices, uniq % num_vertices], axis=1)


def tet_edge_indices(tets: np.ndarray, edges: np.ndarray,
                     num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """For each tet and each of its 6 local edges, the global edge index
    and the sign (+1 if the tet's local (a,b) matches the global edge
    direction edges[k] = (a,b), -1 if reversed).

    Returns ``(idx, sign)`` both shaped ``(nt, 6)``.
    """
    tets = np.asarray(tets, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64)
    pairs = tets[:, TET_EDGE_LOCAL]  # (nt, 6, 2)
    lo = np.minimum(pairs[..., 0], pairs[..., 1])
    hi = np.maximum(pairs[..., 0], pairs[..., 1])
    key = lo * np.int64(num_vertices) + hi
    elo = np.minimum(edges[:, 0], edges[:, 1])
    ehi = np.maximum(edges[:, 0], edges[:, 1])
    ekey = elo * np.int64(num_vertices) + ehi
    order = np.argsort(ekey)
    pos = np.searchsorted(ekey[order], key)
    # A key beyond the last edge produces pos == len(ekey); clamp before
    # the gather so the mismatch is reported as the ValueError below.
    idx = order[np.minimum(pos, ekey.size - 1)]
    if not np.all(ekey[idx] == key):
        raise ValueError("tets reference an edge not present in the edge list")
    # sign: +1 when the tet's local ordered pair equals (edges[k,0], edges[k,1])
    sign = np.where(pairs[..., 0] == edges[idx][..., 0], 1, -1).astype(np.int64)
    return idx, sign


def boundary_faces(tets: np.ndarray) -> np.ndarray:
    """Faces belonging to exactly one tet, wound with outward normals.

    Returns an ``(nb, 3)`` int64 array of vertex triples.
    """
    tets = np.asarray(tets, dtype=np.int64)
    faces = tets[:, TET_FACE_LOCAL].reshape(-1, 3)  # (4*nt, 3) outward-wound
    key = np.sort(faces, axis=1)
    # Count occurrences of each unordered face: sort the sorted triples
    # by three int64 columns (np.unique's row-wise sort is ~7x slower)
    # and compare each with its predecessor.
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = (key[1:] != key[:-1]).any(axis=1)
    group = np.cumsum(new) - 1
    single = np.empty(len(faces), dtype=bool)
    single[order] = np.bincount(group)[group] == 1
    return faces[single]
