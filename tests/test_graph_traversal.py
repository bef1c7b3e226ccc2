"""Unit tests for BFS, components, peripheral nodes, overlap expansion."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (bfs_levels, bfs_order, connected_components,
                         component_sizes, graph_from_edges,
                         pseudo_peripheral_node)
from repro.graph.adjacency import Graph
from repro.graph.traversal import expand_overlap


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
        sizes = component_sizes(_two_triangles())
        assert sizes.tolist() == [3, 3]

    def test_isolated_vertices_are_components(self):
        g = graph_from_edges(4, [[0, 1]])
        comp = connected_components(g)
        assert len(set(comp.tolist())) == 3


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
