"""Edge and boundary-face extraction from tetrahedra (vectorised)."""

from __future__ import annotations

import numpy as np

from repro.sparse.segsum import run_starts

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


def _tet_edge_keys(tets: np.ndarray, num_vertices: int,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The ``lo * n + hi`` key of each tet's six local edges, flat in
    tet-major / local-edge-minor order, and whether the local pair
    ``(a, b)`` already runs low to high."""
    a = np.take(tets, TET_EDGE_LOCAL[:, 0], axis=1)      # C-ordered (nt, 6)
    b = np.take(tets, TET_EDGE_LOCAL[:, 1], axis=1)
    fwd = a < b
    key = np.minimum(a, b)
    key *= np.int64(num_vertices)
    key += np.maximum(a, b, out=a)
    return key.ravel(), fwd.ravel()


def edges_from_tets(tets: np.ndarray, num_vertices: int) -> np.ndarray:
    """Unique undirected edges of a tet mesh, canonicalised and sorted.

    Returns an ``(ne, 2)`` int64 array with ``e[:,0] < e[:,1]``,
    lexicographically sorted — the "natural" edge order.  Every tet id
    must lie in ``[0, num_vertices)``: the edge keys are packed in
    base ``num_vertices``.
    """
    tets = np.asarray(tets, dtype=np.int64)
    if tets.size and (tets.min() < 0 or tets.max() >= num_vertices):
        raise ValueError(f"tet vertex ids must lie in [0, {num_vertices})")
    key = _tet_edge_keys(tets, num_vertices)[0]
    key.sort()
    uniq = key[run_starts(key)]
    return np.stack([uniq // num_vertices, uniq % num_vertices], axis=1)


def tet_edge_indices(tets: np.ndarray, edges: np.ndarray,
                     num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """For each tet and each of its 6 local edges, the global edge index
    and the sign (+1 if the tet's local (a,b) matches the global edge
    direction edges[k] = (a,b), -1 if reversed).

    Returns ``(idx, sign)`` both shaped ``(nt, 6)``.  One sort of the
    tet keys meets the sorted edge keys run by run, so the lookup reads
    the edge list in order instead of at random.
    """
    tets = np.asarray(tets, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64)
    nt = tets.shape[0]
    key, fwd = _tet_edge_keys(tets, num_vertices)
    elo = np.minimum(edges[:, 0], edges[:, 1])
    ehi = np.maximum(edges[:, 0], edges[:, 1])
    ekey = elo * np.int64(num_vertices) + ehi
    eorder = np.argsort(ekey)
    ekey = ekey[eorder]
    torder = np.argsort(key)
    key = key[torder]
    new = run_starts(key)
    distinct = key[new]
    del key
    pos = np.searchsorted(ekey, distinct)
    # The keys ascend, so only the last can fall past the end.
    if pos.size and (pos[-1] == ekey.size
                     or not np.array_equal(ekey[pos], distinct)):
        raise ValueError("tets reference an edge not present in the edge list")
    run = np.cumsum(new)
    run -= 1
    idx = np.empty(torder.size, dtype=np.int64)
    idx[torder] = eorder[pos][run]
    del torder, run
    # sign: +1 when the tet's local ordered pair equals (edges[k,0],
    # edges[k,1]), that is when both run the same way between the ids.
    efwd = edges[:, 0] < edges[:, 1]
    sign = np.where(fwd == efwd[idx], 1, -1)
    return idx.reshape(nt, 6), sign.reshape(nt, 6)


def boundary_faces(tets: np.ndarray) -> np.ndarray:
    """Faces belonging to exactly one tet, wound with outward normals.

    Returns an ``(nb, 3)`` int64 array of vertex triples, in tet-major /
    local-face-minor order.
    """
    tets = np.asarray(tets, dtype=np.int64)
    nt = tets.shape[0]
    # Each local face's vertex ids in ascending order, as three (nt, 4)
    # columns: min, median max(min(a, b), min(max(a, b), c)) and max.
    a, b, c = (np.take(tets, TET_FACE_LOCAL[:, k], axis=1) for k in range(3))
    lo = np.minimum(a, b)
    hi = np.maximum(a, b, out=a)
    mid = np.minimum(hi, c, out=b)
    np.maximum(mid, lo, out=mid)
    np.minimum(lo, c, out=lo)
    np.maximum(hi, c, out=hi)
    del c
    # Count occurrences of each unordered face: sort the triples by
    # three int64 columns (whole ids, no packed key) and compare each
    # with its predecessor, a column at a time.
    key = [k.ravel() for k in (lo, mid, hi)]
    order = np.lexsort(key[::-1])
    new = np.zeros(4 * nt, dtype=bool)
    new[:1] = True
    for k in key:
        col = k[order]
        new[1:] |= col[1:] != col[:-1]
    del key, lo, mid, hi, col
    group = np.cumsum(new) - 1
    single = np.empty(4 * nt, dtype=bool)
    single[order] = np.bincount(group)[group] == 1
    t, f = np.nonzero(single.reshape(nt, 4))
    return tets[t[:, None], TET_FACE_LOCAL[f]]
