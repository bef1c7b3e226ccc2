"""Bulk Fiduccia-Mattheyses-style refinement and contiguity repair.

Per pass, the gain of moving every boundary vertex to every adjacent
part is computed in one sorted segmented reduction; positive-gain moves
are then applied greedily in descending gain order under the balance
constraint (gains go slightly stale within a pass — the standard bulk
trade-off, corrected by later passes).  A separate rebalancing phase
moves least-loss vertices out of overweight parts, and
``repair_contiguity`` reassigns disconnected fragments (the k-MeTiS
behaviour; the strict-balance p-MeTiS-style pipeline skips it) with
array reductions over ``connected_components``' labels.

``fm_refine`` and ``repair_contiguity`` run in C on the compiled engine
(:func:`repro.kernels.fm_refine`, :func:`repro.kernels.repair_contiguity`),
label for label the numpy phases here (the ``*_ref`` functions), whose
move loops visit vertices one by one in Python: their order decides the
partition, and the C loops keep it.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.graph.adjacency import Graph
from repro.graph.traversal import connected_components
from repro.sparse.segsum import run_starts

__all__ = ["fm_refine", "fm_refine_ref", "repair_contiguity",
           "repair_contiguity_ref"]

#: max ``max_part_weight / mean_part_weight`` after a move (k-MeTiS
#: uses ~1.03; k-way accepts a little more for connected parts)
_BALANCE_TOL = 1.06


def _keyed_sums(key: np.ndarray, w: np.ndarray):
    """Sum ``w`` over equal ``key``s: ``(keys, sums)`` in ascending key
    order, each sum taken in occurrence order."""
    order = np.argsort(key, kind="stable")
    skey = key[order]
    start = np.flatnonzero(run_starts(skey))
    return skey[start], np.add.reduceat(w[order].astype(np.float64), start)


def _vertex_part_weights(graph: Graph, labels: np.ndarray, nparts: int):
    """Edge weight from each vertex to each adjacent part.

    Returns ``(v_ids, p_ids, weights)`` — one row per (vertex, adjacent
    part) pair, sorted by vertex.
    """
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    key = src * np.int64(nparts) + labels[graph.adjncy]
    uniq, wsum = _keyed_sums(key, graph.ewgt)
    return uniq // nparts, uniq % nparts, wsum


def _first_max(group: np.ndarray, value: np.ndarray):
    """Per group, the index of its largest ``value``, the first one on a
    tie: ``(groups, indices)``, groups ascending."""
    order = np.lexsort((-value, group))
    first = run_starts(group[order])
    return group[order[first]], order[first]


def fm_refine(graph: Graph, labels: np.ndarray, nparts: int,
              max_passes: int = 8,
              strict_balance: bool = False,
              engine: str = "numpy") -> np.ndarray:
    """Refine a k-way partition (returns a new label array); no move
    takes a part over ``_BALANCE_TOL`` times the mean weight.

    Parameters
    ----------
    strict_balance:
        p-MeTiS-style: moves are only allowed into strictly lighter
        parts, preserving (near-)perfect balance; no rebalance phase.
    engine:
        ``"compiled"`` refines in C, bitwise :func:`fm_refine_ref`.
    """
    out = kernels.fm_refine(graph.xadj, graph.adjncy, graph.vwgt,
                            graph.ewgt, labels, nparts, max_passes,
                            strict_balance, _cap(graph, nparts), engine)
    if out is not None:
        return out
    return fm_refine_ref(graph, labels, nparts, max_passes, strict_balance)


def _cap(graph: Graph, nparts: int) -> float:
    """The part-weight bound: ``_BALANCE_TOL`` times the mean."""
    return _BALANCE_TOL * (graph.vwgt.astype(np.float64).sum() / nparts)


def fm_refine_ref(graph: Graph, labels: np.ndarray, nparts: int,
                  max_passes: int, strict_balance: bool) -> np.ndarray:
    """The numpy refinement: ``max_passes`` bulk FM passes, then, unless
    ``strict_balance``, the rebalance."""
    labels = np.asarray(labels, dtype=np.int64).copy()
    vwgt = graph.vwgt.astype(np.float64)
    part_w = np.bincount(labels, weights=vwgt, minlength=nparts)
    cap = _cap(graph, nparts)

    for _ in range(max_passes):
        v_ids, p_ids, wsum = _vertex_part_weights(graph, labels, nparts)
        home = labels[v_ids]
        internal = np.zeros(graph.num_vertices)
        at_home = p_ids == home
        internal[v_ids[at_home]] = wsum[at_home]
        ext = ~at_home
        gain = wsum[ext] - internal[v_ids[ext]]
        cand_v = v_ids[ext]
        cand_p = p_ids[ext]
        pos = gain > 0
        if not pos.any():
            break
        order = np.argsort(-gain[pos], kind="stable")
        cv, cp = cand_v[pos][order], cand_p[pos][order]
        moved = 0
        seen = np.zeros(graph.num_vertices, dtype=bool)
        for v, t in zip(cv.tolist(), cp.tolist()):
            if seen[v]:
                continue
            seen[v] = True
            h = labels[v]
            if h == t:
                continue
            if strict_balance:
                ok = part_w[t] + vwgt[v] <= part_w[h]
            else:
                ok = part_w[t] + vwgt[v] <= cap
            if ok and part_w[h] - vwgt[v] > 0:
                part_w[h] -= vwgt[v]
                part_w[t] += vwgt[v]
                labels[v] = t
                moved += 1
        if moved == 0:
            break

    if not strict_balance:
        _rebalance(graph, labels, part_w, cap, vwgt, nparts)
    return labels


def _rebalance(graph: Graph, labels: np.ndarray, part_w: np.ndarray,
               cap: float, vwgt: np.ndarray, nparts: int,
               max_sweeps: int = 12) -> None:
    """Move least-loss boundary vertices out of overweight parts until
    every part fits under ``cap`` (or sweeps are exhausted)."""
    for _ in range(max_sweeps):
        if not (part_w > cap).any():
            return
        v_ids, p_ids, wsum = _vertex_part_weights(graph, labels, nparts)
        home = labels[v_ids]
        internal = np.zeros(graph.num_vertices)
        at_home = p_ids == home
        internal[v_ids[at_home]] = wsum[at_home]
        ext = ~at_home
        cand_v = v_ids[ext]
        cand_p = p_ids[ext]
        # Only vertices currently in overweight parts may move.
        from_over = part_w[labels[cand_v]] > cap
        cand_v, cand_p = cand_v[from_over], cand_p[from_over]
        cand_w = wsum[ext][from_over]
        if cand_v.size == 0:
            return
        loss = internal[cand_v] - cand_w
        order = np.argsort(loss, kind="stable")
        seen = np.zeros(graph.num_vertices, dtype=bool)
        moved = 0
        for idx in order.tolist():
            v = int(cand_v[idx])
            t = int(cand_p[idx])
            if seen[v]:
                continue
            h = int(labels[v])
            # Move only out of still-overweight parts, and only when it
            # strictly reduces the heavier side — weight then cascades
            # through near-cap neighbours instead of gridlocking.
            if part_w[h] <= cap or part_w[t] + vwgt[v] >= part_w[h]:
                continue
            seen[v] = True
            part_w[h] -= vwgt[v]
            part_w[t] += vwgt[v]
            labels[v] = t
            moved += 1
        if moved == 0:
            return


def repair_contiguity(graph: Graph, labels: np.ndarray, nparts: int,
                      engine: str = "numpy") -> np.ndarray:
    """Reassign disconnected fragments to their best adjacent part.

    For every part, only the heaviest connected component stays; each
    other fragment goes to the neighbouring part it shares the most
    edge weight with.  This is the contiguity enforcement that
    distinguishes the k-MeTiS-style pipeline from the strict-balance
    one (which tolerates fragments to keep perfect balance).  Ties go
    to the lowest component id (components are numbered by their
    smallest vertex) and to the lowest part.  ``engine="compiled"``
    repairs in C, bitwise :func:`repair_contiguity_ref`.
    """
    out = kernels.repair_contiguity(graph.xadj, graph.adjncy, graph.vwgt,
                                    graph.ewgt, labels, nparts, engine)
    if out is not None:
        return out
    return repair_contiguity_ref(graph, labels, nparts)


def repair_contiguity_ref(graph: Graph, labels: np.ndarray,
                          nparts: int) -> np.ndarray:
    """The numpy repair: up to four rounds of component labelling and
    keyed reductions."""
    labels = np.asarray(labels, dtype=np.int64).copy()
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    for _ in range(4):  # fragment reassignment may cascade
        comp = connected_components(graph, labels)
        ncomp = int(comp.max()) + 1 if n else 0
        comp_w = np.bincount(comp, weights=graph.vwgt.astype(float),
                             minlength=ncomp)
        comp_part = np.full(ncomp, -1, dtype=np.int64)
        comp_part[comp] = labels  # all vertices of a comp share a label
        # Heaviest component of each part survives.
        keep = np.zeros(nparts, dtype=np.int64)
        parts, heaviest = _first_max(comp_part, comp_w)
        keep[parts] = heaviest
        fragment = np.ones(ncomp, dtype=bool)
        fragment[keep] = False
        frag_of_vertex = fragment[comp]
        if not frag_of_vertex.any():
            break
        # Edge weight from each fragment to each *other* part.
        cross = frag_of_vertex[src] & (labels[src] != labels[graph.adjncy])
        if not cross.any():
            break
        fkey = comp[src[cross]] * np.int64(nparts) + labels[graph.adjncy[cross]]
        uniq, wsum = _keyed_sums(fkey, graph.ewgt[cross])
        # Best target part per fragment.
        target = np.full(ncomp, -1, dtype=np.int64)
        fcomp, best = _first_max(uniq // nparts, wsum)
        target[fcomp] = uniq[best] % nparts
        movable = frag_of_vertex & (target[comp] >= 0)
        if not movable.any():
            break
        labels[movable] = target[comp[movable]]
    return labels
