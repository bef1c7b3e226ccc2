"""RCM ordering: correctness and bandwidth-reduction behaviour.

scipy.sparse.csgraph.reverse_cuthill_mckee is used as a quality oracle
(orderings may differ; the achieved bandwidth must be comparable).
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro.graph import (bandwidth, cuthill_mckee, graph_from_edges,
                         rcm_ordering)
from repro.mesh import shuffle_vertices, unit_cube_mesh
from tests.helpers import envelope_profile, relabelled


def _scipy_bandwidth(graph, perm):
    edges = graph.edge_list()
    inv = np.empty(graph.num_vertices, dtype=np.int64)
    inv[perm] = np.arange(graph.num_vertices)
    e = inv[edges]
    return int(np.abs(e[:, 0] - e[:, 1]).max())


class TestRCM:
    def test_is_permutation(self, medium_graph):
        perm = rcm_ordering(medium_graph)
        assert np.array_equal(np.sort(perm),
                              np.arange(medium_graph.num_vertices))

    def test_reverses_cm(self, small_graph):
        cm = cuthill_mckee(small_graph)
        rcm = rcm_ordering(small_graph)
        assert np.array_equal(rcm, cm[::-1])

    def test_reduces_bandwidth_on_shuffled_mesh(self):
        mesh = shuffle_vertices(unit_cube_mesh(8, jitter=0.2), seed=11)
        g = mesh.vertex_graph()
        bw_before = bandwidth(g)
        bw_after = bandwidth(relabelled(g, rcm_ordering(g)))
        assert bw_after < bw_before / 3

    def test_reduces_profile(self):
        mesh = shuffle_vertices(unit_cube_mesh(8, jitter=0.2), seed=11)
        g = mesh.vertex_graph()
        assert envelope_profile(relabelled(g, rcm_ordering(g))) \
            < envelope_profile(g)

    def test_comparable_to_scipy(self):
        mesh = shuffle_vertices(unit_cube_mesh(8, jitter=0.2), seed=4)
        g = mesh.vertex_graph()
        ours = bandwidth(relabelled(g, rcm_ordering(g)))
        edges = g.edge_list()
        n = g.num_vertices
        a = sp.coo_matrix((np.ones(edges.shape[0]),
                           (edges[:, 0], edges[:, 1])), shape=(n, n))
        a = (a + a.T).tocsr()
        sperm = np.asarray(reverse_cuthill_mckee(a, symmetric_mode=True))
        theirs = _scipy_bandwidth(g, sperm)
        assert ours <= 1.5 * theirs + 5

    def test_disconnected_graph_covered(self):
        g = graph_from_edges(7, [[0, 1], [1, 2], [4, 5], [5, 6]])
        perm = rcm_ordering(g)
        assert np.array_equal(np.sort(perm), np.arange(7))

    def test_path_graph_is_optimal(self):
        n = 20
        edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        rng = np.random.default_rng(0)
        relab = rng.permutation(n)
        g = graph_from_edges(n, relab[edges])
        assert bandwidth(relabelled(g, rcm_ordering(g))) == 1


class TestBandwidthMetric:
    def test_empty_graph(self):
        g = graph_from_edges(3, np.empty((0, 2), dtype=np.int64))
        assert bandwidth(g) == 0
        assert envelope_profile(g) == 0
