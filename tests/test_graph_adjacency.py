"""Unit tests for the CSR graph container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, graph_from_edges, graph_from_csr


def _is_symmetric(g):
    """Every directed arc has its reverse (undirectedness)."""
    src = np.repeat(np.arange(g.num_vertices), np.diff(g.xadj))
    fwd = set(zip(src.tolist(), g.adjncy.tolist()))
    return all((b, a) in fwd for (a, b) in fwd)


def _path_graph(n):
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return graph_from_edges(n, edges)


class TestConstruction:
    def test_from_edges_basic(self):
        g = graph_from_edges(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        assert g.num_vertices == 4
        assert g.num_edges == 4
        assert sorted(g.neighbors(0).tolist()) == [1, 3]
        assert g.degrees()[1] == 2

    def test_from_edges_merges_duplicates(self):
        g = graph_from_edges(3, [[0, 1], [1, 0], [0, 1]])
        assert g.num_edges == 1
        # Edge weights accumulate on merge.
        assert g.ewgt[g.xadj[0]] == 3

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [[1, 1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [[0, 5]])

    def test_bad_xadj_rejected(self):
        with pytest.raises(ValueError):
            Graph(xadj=np.array([0, 2]), adjncy=np.array([1]))

    def test_isolated_vertices(self):
        g = graph_from_edges(5, [[0, 1]])
        assert g.degrees()[4] == 0
        assert g.num_edges == 1

    def test_from_csr_drops_diagonal(self):
        indptr = np.array([0, 2, 4])
        indices = np.array([0, 1, 0, 1])
        g = graph_from_csr(indptr, indices)
        assert g.num_edges == 1
        assert g.neighbors(0).tolist() == [1]


class TestOperations:
    def test_edge_list_roundtrip(self, small_graph):
        edges = small_graph.edge_list()
        g2 = graph_from_edges(small_graph.num_vertices, edges)
        assert np.array_equal(g2.xadj, small_graph.xadj)
        assert np.array_equal(g2.adjncy, small_graph.adjncy)

    def test_symmetry(self, small_graph):
        assert _is_symmetric(small_graph)

    def test_degrees_sum(self, small_graph):
        assert small_graph.degrees().sum() == 2 * small_graph.num_edges

    def test_subgraph_degrees(self):
        g = _path_graph(6)
        sub, vmap = g.subgraph(np.array([0, 1, 2]))
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        assert np.array_equal(vmap, [0, 1, 2])

    def test_subgraph_excludes_external_edges(self):
        g = _path_graph(6)
        sub, _ = g.subgraph(np.array([1, 3, 5]))   # pairwise nonadjacent
        assert sub.num_edges == 0


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 20), st.data())
def test_property_edge_list_canonical(n, data):
    """Property: edge_list is sorted, unique, and low < high."""
    m = data.draw(st.integers(1, 3 * n))
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda t: t[0] != t[1]),
        min_size=1, max_size=m))
    g = graph_from_edges(n, np.array(pairs))
    el = g.edge_list()
    assert np.all(el[:, 0] < el[:, 1])
    assert np.unique(el, axis=0).shape == el.shape
    assert _is_symmetric(g)
