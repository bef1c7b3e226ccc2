"""Edge coloring tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import distance2_edge_coloring
from repro.graph.coloring import color_classes


class TestEdgeColoring:
    def test_proper_edge_coloring(self, small_mesh):
        colors = distance2_edge_coloring(small_mesh.edges,
                                         small_mesh.num_vertices)
        # No two same-colored edges share a vertex.
        for c in np.unique(colors):
            cls = small_mesh.edges[colors == c]
            endpoints = cls.ravel()
            assert np.unique(endpoints).size == endpoints.size

    def test_vizing_like_bound(self, small_mesh):
        colors = distance2_edge_coloring(small_mesh.edges,
                                         small_mesh.num_vertices)
        max_deg = small_mesh.vertex_graph().degrees().max()
        # Greedy edge coloring uses at most 2*maxdeg - 1 colors.
        assert colors.max() + 1 <= 2 * max_deg - 1

    def test_path_alternates_two_colors(self):
        """A path's edges are a bipartite line graph: the greedy
        coloring in path order alternates two colors."""
        n = 10
        edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        colors = distance2_edge_coloring(edges, n)
        assert colors.tolist() == [e % 2 for e in range(n - 1)]

    def test_triangle_needs_three(self):
        colors = distance2_edge_coloring(np.array([[0, 1], [1, 2], [0, 2]]), 3)
        assert len(set(colors.tolist())) == 3


class TestColorClasses:
    def test_partition_of_indices(self):
        colors = np.array([1, 0, 1, 2, 0])
        classes = color_classes(colors)
        assert [c.tolist() for c in classes] == [[1, 4], [0, 2], [3]]

    def test_total_count(self, small_mesh):
        colors = distance2_edge_coloring(small_mesh.edges,
                                         small_mesh.num_vertices)
        classes = color_classes(colors)
        assert sum(len(c) for c in classes) == small_mesh.num_edges


@settings(deadline=None, max_examples=25)
@given(st.integers(3, 15), st.data())
def test_property_edge_coloring_always_proper(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda t: t[0] != t[1]),
        min_size=1, max_size=2 * n, unique=True))
    edges = np.array([(min(a, b), max(a, b)) for a, b in pairs])
    edges = np.unique(edges, axis=0)
    colors = distance2_edge_coloring(edges, n)
    incident: dict[tuple[int, int], int] = {}
    for e, c in enumerate(colors.tolist()):
        for v in edges[e]:
            key = (int(v), c)
            assert key not in incident, "two same-color edges share a vertex"
            incident[key] = e
