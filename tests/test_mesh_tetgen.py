"""Mesh generator tests: validity, counts, grading, shuffling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import box_mesh, shuffle_vertices, unit_cube_mesh, wing_mesh


class TestBoxMesh:
    def test_vertex_count(self):
        m = box_mesh(3, 4, 5)
        assert m.num_vertices == 60

    def test_tet_count_six_per_cube(self):
        m = box_mesh(3, 3, 3)
        assert m.num_tets == 6 * 2 * 2 * 2

    def test_positive_volumes(self):
        m = box_mesh(4, 3, 5, jitter=0.3, seed=2)
        assert np.all(m.tet_volumes() > 0)

    def test_volume_sums_to_box(self):
        m = box_mesh(5, 4, 3, jitter=0.25, seed=9)
        assert np.isclose(m.tet_volumes().sum(), 1.0)

    def test_jitter_keeps_boundary_fixed(self):
        m0 = box_mesh(4, 4, 4)
        m1 = box_mesh(4, 4, 4, jitter=0.3, seed=1)
        boundary = np.any((m0.coords < 1e-12) | (m0.coords > 1 - 1e-12), axis=1)
        assert np.allclose(m0.coords[boundary], m1.coords[boundary])

    def test_jitter_moves_interior(self):
        m0 = box_mesh(4, 4, 4)
        m1 = box_mesh(4, 4, 4, jitter=0.3, seed=1)
        assert not np.allclose(m0.coords, m1.coords)

    def test_deterministic_by_seed(self):
        a = box_mesh(4, 4, 4, jitter=0.2, seed=5)
        b = box_mesh(4, 4, 4, jitter=0.2, seed=5)
        assert np.array_equal(a.coords, b.coords)

    def test_rejects_small_axes(self):
        with pytest.raises(ValueError):
            box_mesh(1, 4, 4)

    def test_rejects_big_jitter(self):
        with pytest.raises(ValueError):
            box_mesh(3, 3, 3, jitter=0.6)

    def test_conforming_no_hanging_edges(self):
        """Every tet edge must be in the unique edge list (tested via
        tet_edge_indices not raising)."""
        from repro.mesh.edges import tet_edge_indices
        m = box_mesh(4, 4, 4, jitter=0.3, seed=3)
        idx, sign = tet_edge_indices(m.tets, m.edges, m.num_vertices)
        assert idx.shape == (m.num_tets, 6)
        assert set(np.unique(sign)) <= {-1, 1}

    def test_average_degree_3d_like(self):
        m = unit_cube_mesh(8)
        # Interior vertices of the Kuhn subdivision have degree 14;
        # boundary lowers the average.
        assert 8 < m.average_degree < 14

    def test_summary_reports_counts(self):
        m = unit_cube_mesh(4)
        text = m.summary()
        for count in (m.num_vertices, m.num_edges, m.num_tets):
            assert f" {count} " in text
        assert f"{m.average_degree:.2f}" in text

    def test_edge_scatter_index_is_cached_flat_index(self):
        """Component c of an edge's 4-vector at end 1 lands in slot
        ``edges[e, 1] * 4 + c``; the array is built once per key."""
        m = unit_cube_mesh(4)
        idx = m.edge_scatter_index(1, 4)
        assert idx.shape == (4 * m.num_edges,)
        assert np.array_equal(idx.reshape(-1, 4),
                              4 * m.edges[:, 1:2] + np.arange(4))
        assert m.edge_scatter_index(1, 4) is idx
        assert np.array_equal(m.edge_scatter_index(0, 1), m.edges[:, 0])


class TestWingMesh:
    def test_valid(self, small_wing_mesh):
        assert np.all(small_wing_mesh.tet_volumes() > 0)

    def test_graded_toward_wall(self):
        m = wing_mesh(5, 5, 9, jitter=0.0)
        z = np.unique(np.round(m.coords[:, 2], 12))
        dz = np.diff(z)
        assert dz[0] < dz[-1]  # spacing grows away from the wall

    def test_same_connectivity_as_box(self):
        w = wing_mesh(5, 4, 4, jitter=0.2, seed=3)
        b = box_mesh(5, 4, 4, jitter=0.2, seed=3)
        assert np.array_equal(w.edges, b.edges)
        assert np.array_equal(w.tets, b.tets)

    def test_domain_preserved(self):
        m = wing_mesh(6, 6, 6, jitter=0.0)
        assert m.coords.min() >= -1e-12
        assert m.coords.max() <= 1 + 1e-12


class TestShuffle:
    def test_preserves_geometry(self, small_mesh):
        s = shuffle_vertices(small_mesh, seed=3)
        assert np.isclose(s.tet_volumes().sum(),
                          small_mesh.tet_volumes().sum())
        assert s.num_edges == small_mesh.num_edges

    def test_degree_multiset_invariant(self, small_mesh):
        s = shuffle_vertices(small_mesh, seed=3)
        assert (sorted(s.vertex_graph().degrees())
                == sorted(small_mesh.vertex_graph().degrees()))

    def test_edges_canonical(self, small_mesh):
        s = shuffle_vertices(small_mesh, seed=3)
        assert np.all(s.edges[:, 0] < s.edges[:, 1])

    @pytest.mark.parametrize("break_it", ["repeat", "negative", "too_big",
                                          "short", "long"])
    def test_permuted_rejects_a_non_permutation(self, break_it):
        """A repeated entry used to build a mesh with a duplicated
        vertex (26 distinct coordinate rows of 27) and no error."""
        m = box_mesh(3, 3, 3)
        perm = np.arange(27)
        perm = {"repeat": np.where(perm == 5, 4, perm),
                "negative": np.where(perm == 5, -1, perm),
                "too_big": np.where(perm == 5, 27, perm),
                "short": perm[:-1],
                "long": np.append(perm, 0)}[break_it]
        with pytest.raises(ValueError, match="not a permutation"):
            m.permuted(perm)


@settings(deadline=None, max_examples=10)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5),
       st.floats(0.0, 0.4))
def test_property_mesh_always_valid(nx, ny, nz, jitter):
    m = box_mesh(nx, ny, nz, jitter=jitter, seed=1)
    vols = m.tet_volumes()
    assert np.all(vols > 0)
    assert np.isclose(vols.sum(), 1.0)
    assert m.num_tets == 6 * (nx - 1) * (ny - 1) * (nz - 1)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
