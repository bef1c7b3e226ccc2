"""Ordering machinery: the Table 1 / Fig. 3 layout axes."""

import numpy as np
import pytest

from repro.mesh import (EdgeOrdering, VertexOrdering, apply_orderings,
                        edge_span_stats, mesh_locality_report, order_edges,
                        order_vertices, shuffle_vertices, unit_cube_mesh)
from repro.mesh.metrics import loop_stride_stats
from tests.helpers import closure_defect


@pytest.fixture(scope="module")
def shuffled():
    return shuffle_vertices(unit_cube_mesh(8, jitter=0.2, seed=2), seed=9)


class TestVertexOrdering:
    def test_natural_identity(self, shuffled):
        perm = order_vertices(shuffled, "natural")
        assert np.array_equal(perm, np.arange(shuffled.num_vertices))

    def test_all_are_permutations(self, shuffled):
        for kind in VertexOrdering:
            perm = order_vertices(shuffled, kind)
            assert np.array_equal(np.sort(perm),
                                  np.arange(shuffled.num_vertices))

    def test_rcm_shrinks_span(self, shuffled):
        before = edge_span_stats(shuffled.edges)["mean"]
        m = shuffled.permuted(order_vertices(shuffled, "rcm"))
        after = edge_span_stats(m.edges)["mean"]
        assert after < before / 2

    def test_unknown_kind_raises(self, shuffled):
        with pytest.raises(ValueError):
            order_vertices(shuffled, "zigzag")


class TestEdgeOrdering:
    def test_all_are_permutations(self, shuffled):
        for kind in EdgeOrdering:
            perm = order_edges(shuffled, kind)
            assert np.array_equal(np.sort(perm),
                                  np.arange(shuffled.num_edges))

    def test_sorted_is_lexicographic(self, shuffled):
        perm = order_edges(shuffled, "sorted")
        e = shuffled.edges[perm]
        keys = e[:, 0] * shuffled.num_vertices + e[:, 1]
        assert np.all(np.diff(keys) > 0)

    def test_sorted_minimises_loop_stride(self, shuffled):
        strides = {}
        for kind in ["sorted", "colored", "random"]:
            e = shuffled.edges[order_edges(shuffled, kind)]
            strides[kind] = loop_stride_stats(e)["mean_abs"]
        assert strides["sorted"] < strides["colored"]
        assert strides["sorted"] < strides["random"]

    def test_colored_order_groups_colors(self, shuffled):
        from repro.graph import distance2_edge_coloring
        perm = order_edges(shuffled, "colored")
        colors = distance2_edge_coloring(shuffled.edges,
                                         shuffled.num_vertices)[perm]
        # Colors appear as contiguous runs.
        changes = int((np.diff(colors) != 0).sum())
        assert changes == len(set(colors.tolist())) - 1


class TestApplyOrderings:
    def test_geometry_preserved(self, shuffled):
        m = apply_orderings(shuffled, "rcm", "sorted")
        assert np.isclose(m.tet_volumes().sum(),
                          shuffled.tet_volumes().sum())
        assert m.num_edges == shuffled.num_edges

    def test_tuned_layout_improves_all_metrics(self, shuffled):
        base = mesh_locality_report(apply_orderings(shuffled, "natural",
                                                    "colored"))
        tuned = mesh_locality_report(apply_orderings(shuffled, "rcm",
                                                     "sorted"))
        assert tuned.matrix_bandwidth < base.matrix_bandwidth
        assert tuned.edge_span["mean"] < base.edge_span["mean"]
        assert (tuned.loop_stride["mean_abs"]
                < base.loop_stride["mean_abs"])

    def test_name_records_layout(self, shuffled):
        m = apply_orderings(shuffled, "rcm", "sorted")
        assert "rcm" in m.name and "sorted" in m.name

    def test_dual_metrics_consistent_after_reordering(self, shuffled):
        from repro.mesh import compute_dual_metrics
        m = apply_orderings(shuffled, "rcm", "sorted")
        dm = compute_dual_metrics(m)
        assert closure_defect(dm, m.edges).max() < 1e-11


class TestLocalityReport:
    def test_report_rows_well_formed(self, shuffled):
        rep = mesh_locality_report(shuffled)
        rows = dict(rep.rows())
        assert int(rows["vertices"]) == shuffled.num_vertices
        assert int(rows["edges"]) == shuffled.num_edges
