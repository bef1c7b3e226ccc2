"""Unit tests for BFS, components, peripheral nodes, overlap expansion."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (bfs_levels, connected_components, cuthill_mckee,
                         graph_from_edges, pseudo_peripheral_node)
from repro.graph.adjacency import Graph
from repro.graph.traversal import bfs_queue, expand_overlap, sorted_adjacency


def bfs_order(graph, root, tie_break=None):
    """The BFS visiting order from ``root`` that Cuthill-McKee builds
    from: neighbours enqueued by ``(tie_break, id)``, default degree."""
    return bfs_queue(graph.xadj, sorted_adjacency(graph, tie_break), root,
                     np.zeros(graph.num_vertices, dtype=bool))


def _path_graph(n):
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return graph_from_edges(n, edges)


def _two_triangles():
    return graph_from_edges(6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])


class TestBFS:
    def test_levels_path(self):
        g = _path_graph(5)
        lev = bfs_levels(g, [0])
        assert lev.tolist() == [0, 1, 2, 3, 4]

    def test_levels_multi_source(self):
        g = _path_graph(5)
        lev = bfs_levels(g, [0, 4])
        assert lev.tolist() == [0, 1, 2, 1, 0]

    def test_levels_isolated_root_among_roots(self):
        """An isolated root's empty adjacency range used to shift the
        next root's: roots [0, 1] left vertex 2 unreached, [0, 2]
        raised IndexError."""
        g = graph_from_edges(3, [[1, 2]])
        assert bfs_levels(g, [0, 1]).tolist() == [0, 0, 1]
        assert bfs_levels(g, [0, 2]).tolist() == [0, 1, 0]

    def test_levels_unreachable(self):
        g = _two_triangles()
        lev = bfs_levels(g, [0])
        assert np.all(lev[3:] == -1)
        assert np.all(lev[:3] >= 0)

    def test_levels_match_networkx(self, small_graph):
        import networkx as nx
        nxg = nx.Graph(list(map(tuple, small_graph.edge_list())))
        ref = nx.single_source_shortest_path_length(nxg, 0)
        lev = bfs_levels(small_graph, [0])
        for v, d in ref.items():
            assert lev[v] == d

    def test_bfs_order_visits_component_once(self, small_graph):
        order = bfs_order(small_graph, 0)
        assert order.size == small_graph.num_vertices  # connected mesh
        assert np.unique(order).size == order.size

    def test_bfs_order_degree_tie_break(self):
        # Star with extra chain: neighbours of 0 enqueued by degree.
        g = graph_from_edges(5, [[0, 1], [0, 2], [0, 3], [3, 4]])
        order = bfs_order(g, 0)
        # deg(1)=deg(2)=1 < deg(3)=2, so 3 comes after 1 and 2.
        assert order.tolist()[:1] == [0]
        assert order.tolist().index(3) > order.tolist().index(1)


def bfs_order_per_vertex(graph, root, tie_break=None):
    """The per-vertex formulation: each dequeued vertex sorts its fresh
    neighbours (unique ids, then a stable sort by ``tie_break``)."""
    if tie_break is None:
        tie_break = graph.degrees()
    visited = np.zeros(graph.num_vertices, dtype=bool)
    visited[root] = True
    order = [root]
    head = 0
    while head < len(order):
        nbrs = graph.neighbors(order[head])
        head += 1
        fresh = np.unique(nbrs[~visited[nbrs]])
        fresh = fresh[np.argsort(tie_break[fresh], kind="stable")]
        visited[fresh] = True
        order.extend(fresh.tolist())
    return np.array(order, dtype=np.int64)


class TestBFSOrderOracle:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 40), st.floats(0.0, 0.4), st.integers(0, 10_000),
           st.sampled_from(["degree", "ties", "random"]), st.booleans())
    def test_matches_per_vertex_sort(self, n, density, seed, tie, repeat):
        """One (tie_break, id) sort of the whole adjacency enqueues the
        same order as sorting every vertex's fresh neighbours — with
        tied keys, disconnected parts and repeated arcs."""
        rng = np.random.default_rng(seed)
        mask = np.triu(rng.random((n, n)) < density, 1)
        edges = np.argwhere(mask)
        g = graph_from_edges(n, edges)
        if repeat and g.adjncy.size:
            # a raw Graph may list an arc twice; the order must not care
            rows = [g.neighbors(v) for v in range(n)]
            rows = [np.concatenate([r, r[:1]]) for r in rows]
            xadj = np.zeros(n + 1, dtype=np.int64)
            np.cumsum([r.size for r in rows], out=xadj[1:])
            g = Graph(xadj, np.concatenate(rows))
        tie_break = {"degree": None,
                     "ties": rng.integers(0, 3, n),
                     "random": rng.random(n)}[tie]
        root = int(rng.integers(n))
        assert np.array_equal(bfs_order(g, root, tie_break),
                              bfs_order_per_vertex(g, root, tie_break))


# ----------------------------------------------------------------------
# The pre-level-synchronous formulations, kept as oracles: one
# ``np.unique`` per BFS level, a Python loop dequeuing one vertex at a
# time, and a Cuthill-McKee that scans every vertex for the next root.
# ----------------------------------------------------------------------

def bfs_levels_unique(graph, roots):
    level = np.full(graph.num_vertices, -1, dtype=np.int64)
    frontier = np.unique(np.atleast_1d(np.asarray(roots, dtype=np.int64)))
    level[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        nbrs = np.concatenate([graph.neighbors(v) for v in frontier])
        nbrs = np.unique(nbrs)
        frontier = nbrs[level[nbrs] < 0]
        level[frontier] = depth
    return level


def bfs_order_queue(graph, root, tie_break=None):
    """One (tie_break, id) sort of the adjacency, then a FIFO queue
    dequeuing a vertex per Python iteration."""
    n = graph.num_vertices
    if tie_break is None:
        tie_break = graph.degrees()
    xadj, nbr = graph.xadj, graph.adjncy
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


def pseudo_peripheral_unique(graph, start):
    deg = graph.degrees()
    level = bfs_levels_unique(graph, [start])
    ecc = int(level.max())
    while True:
        deepest = np.where(level == ecc)[0]
        u = int(deepest[np.argmin(deg[deepest])])
        lvl_u = bfs_levels_unique(graph, [u])
        if int(lvl_u.max()) <= ecc:
            return u
        level, ecc = lvl_u, int(lvl_u.max())


def cuthill_mckee_scan(graph):
    n = graph.num_vertices
    perm = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    filled = 0
    for seed in range(n):
        if visited[seed]:
            continue
        order = bfs_order_queue(graph, pseudo_peripheral_unique(graph, seed))
        order = order[~visited[order]]
        visited[order] = True
        perm[filled : filled + order.size] = order
        filled += order.size
    return perm


@st.composite
def _graphs(draw):
    """Random graphs, often disconnected, some repeating arcs in every
    nonempty row (a raw :class:`Graph` may)."""
    n = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.integers(0, n, (int(rng.integers(0, 3 * n + 1)), 2))
    g = graph_from_edges(n, e[e[:, 0] != e[:, 1]])
    if draw(st.booleans()) and g.adjncy.size:
        rows = [g.neighbors(v) for v in range(n)]
        rows = [np.concatenate([r, r[rng.integers(0, r.size, r.size // 2
                                                  + 1)]]) if r.size else r
                for r in rows]
        xadj = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([r.size for r in rows], out=xadj[1:])
        g = Graph(xadj, np.concatenate(rows))
    return g, rng


class TestLevelSynchronousOracle:
    """The level-synchronous traversals against the per-level ``unique``
    and per-vertex queue formulations, bit for bit."""

    @settings(deadline=None, max_examples=80)
    @given(_graphs())
    def test_bfs_levels(self, drawn):
        g, rng = drawn
        roots = rng.integers(0, g.num_vertices, int(rng.integers(1, 4)))
        assert np.array_equal(bfs_levels(g, roots),
                              bfs_levels_unique(g, roots))

    @settings(deadline=None, max_examples=80)
    @given(_graphs(), st.sampled_from(["degree", "ties", "random"]))
    def test_bfs_order(self, drawn, tie):
        g, rng = drawn
        n = g.num_vertices
        tie_break = {"degree": None, "ties": rng.integers(0, 3, n),
                     "random": rng.random(n)}[tie]
        root = int(rng.integers(n))
        got = bfs_order(g, root, tie_break)
        assert got.dtype == np.int64
        assert np.array_equal(got, bfs_order_queue(g, root, tie_break))

    @settings(deadline=None, max_examples=80)
    @given(_graphs())
    def test_cuthill_mckee(self, drawn):
        g, _ = drawn
        got = cuthill_mckee(g)
        assert got.dtype == np.int64
        assert np.array_equal(got, cuthill_mckee_scan(g))

    def test_cuthill_mckee_on_a_shuffled_mesh(self):
        from repro.mesh import shuffle_vertices, wing_mesh
        g = shuffle_vertices(wing_mesh(9, 7, 5), seed=4).vertex_graph()
        assert np.array_equal(cuthill_mckee(g), cuthill_mckee_scan(g))

    def test_empty_graph(self):
        g = Graph(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert cuthill_mckee(g).tolist() == []


class TestComponents:
    def test_single_component(self, small_graph):
        comp = connected_components(small_graph)
        assert comp.max() == 0

    def test_two_components(self):
        comp = connected_components(_two_triangles())
        assert comp.max() == 1
        assert set(comp[:3]) == {0}
        assert set(comp[3:]) == {1}

    def test_component_sizes(self):
        sizes = np.bincount(connected_components(_two_triangles()))
        assert sizes.tolist() == [3, 3]

    def test_isolated_vertices_are_components(self):
        g = graph_from_edges(4, [[0, 1]])
        comp = connected_components(g)
        assert len(set(comp.tolist())) == 3

    def test_labels_split_components(self):
        """Given labels, an edge between two parts joins nothing."""
        g = _path_graph(6)
        comp = connected_components(g, np.array([0, 0, 1, 0, 0, 1]))
        assert comp.tolist() == [0, 0, 1, 2, 2, 3]


def _zigzag_path(n):
    """A path visiting 0, n-1, 1, n-2, ...: every vertex's path
    neighbours lie at the far end of the numbering."""
    lo, hi = np.arange(n), np.arange(n - 1, -1, -1)
    visit = np.stack([lo, hi], axis=1).ravel()[:n]
    return graph_from_edges(n, np.stack([visit[:-1], visit[1:]], axis=1))


def _scipy_components(graph, labels):
    """scipy's labelling of the label-induced subgraph, renumbered in
    smallest-vertex order."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components as sp_components
    n = graph.num_vertices
    src = np.repeat(np.arange(n), np.diff(graph.xadj))
    dst = graph.adjncy
    intra = labels[src] == labels[dst]
    a = sp.csr_matrix((np.ones(int(intra.sum())), (src[intra], dst[intra])),
                      shape=(n, n))
    _, comp = sp_components(a, directed=False)
    _, first = np.unique(comp, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[comp]


class TestComponentsOracle:
    """The hooking labeller against scipy on the label-induced subgraph:
    the same grouping, with ids in smallest-vertex order."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1),
           st.integers(1, 5), st.sampled_from(["random", "zigzag"]))
    def test_matches_scipy(self, n, seed, nlabels, kind):
        rng = np.random.default_rng(seed)
        if kind == "zigzag":
            g = _zigzag_path(n)
        else:
            e = rng.integers(0, n, (int(rng.integers(0, 3 * n + 1)), 2))
            g = graph_from_edges(n, e[e[:, 0] != e[:, 1]])
        labels = rng.integers(0, nlabels, n)
        assert np.array_equal(connected_components(g, labels),
                              _scipy_components(g, labels))
        assert np.array_equal(connected_components(g),
                              _scipy_components(g, np.zeros(n, np.int64)))

    def test_long_zigzag_path(self):
        g = _zigzag_path(20_000)
        assert not connected_components(g).any()
        labels = np.random.default_rng(3).integers(0, 3, g.num_vertices)
        assert np.array_equal(connected_components(g, labels),
                              _scipy_components(g, labels))


class TestPeripheral:
    def test_path_endpoint(self):
        g = _path_graph(9)
        v = pseudo_peripheral_node(g, start=4)
        assert v in (0, 8)

    def test_idempotent_on_periphery(self):
        g = _path_graph(9)
        assert pseudo_peripheral_node(g, start=0) in (0, 8)


class TestOverlap:
    def test_zero_overlap_identity(self, small_graph):
        core = np.array([0, 5, 9])
        assert np.array_equal(expand_overlap(small_graph, core, 0), core)

    def test_one_ring(self):
        g = _path_graph(7)
        out = expand_overlap(g, np.array([3]), 1)
        assert out.tolist() == [2, 3, 4]

    def test_rings_nest(self, small_graph):
        core = np.array([0])
        prev = core
        for delta in range(1, 4):
            cur = expand_overlap(small_graph, core, delta)
            assert np.all(np.isin(prev, cur))
            assert cur.size >= prev.size
            prev = cur

    def test_overlap_matches_bfs(self, small_graph):
        core = np.array([2, 17])
        out = expand_overlap(small_graph, core, 2)
        lev = bfs_levels(small_graph, core)
        expected = np.where((lev >= 0) & (lev <= 2))[0]
        assert np.array_equal(out, expected)
