"""Test-side oracles for a partition's halo, shared by the SPMD and the
partition tests."""

import numpy as np


def arc_pass(graph, labels):
    """Per-rank halo counts from the graph's arcs, vectorised: the
    oracle for the layout.  Rank ``labels[u]`` ghosts ``v`` for every
    cut arc ``u -> v``; its owner sends that copy; the distinct owners
    a rank hears from are its messages, the distinct vertices some
    other rank ghosts are its interface; an edge is interior to its
    rank when both ends share it and a halo edge of both ranks when
    cut."""
    labels = np.asarray(labels, dtype=np.int64)
    n = graph.num_vertices
    nparts = int(labels.max()) + 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    dst = graph.adjncy
    cut = labels[src] != labels[dst]
    pair = np.unique(labels[src[cut]] * np.int64(n) + dst[cut])
    req, gv = pair // n, pair % n
    nbr = np.unique(labels[src[cut]] * np.int64(nparts) + labels[dst[cut]])
    up = src < dst
    a, b = labels[src[up]], labels[dst[up]]
    same = a == b
    return dict(
        ghosts=np.bincount(req, minlength=nparts),
        sends=np.bincount(labels[gv], minlength=nparts),
        neighbors=np.bincount(nbr // nparts, minlength=nparts),
        interface=np.bincount(labels[np.unique(gv)], minlength=nparts),
        cut_edges=int(cut.sum()) // 2,
        interior=np.bincount(a[same], minlength=nparts),
        halo=(np.bincount(a[~same], minlength=nparts)
              + np.bincount(b[~same], minlength=nparts)))
