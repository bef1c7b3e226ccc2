"""Median-dual metrics: the conservation-critical geometric identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (Mesh, box_mesh, compute_dual_metrics,
                        unit_cube_mesh, wing_mesh)


class TestDualVolumes:
    def test_sum_equals_mesh_volume(self, small_mesh, small_dual):
        assert np.isclose(small_dual.dual_volumes.sum(),
                          small_mesh.tet_volumes().sum())

    def test_all_positive(self, small_dual):
        assert np.all(small_dual.dual_volumes > 0)

    def test_uniform_grid_interior_equal(self):
        m = unit_cube_mesh(5)
        dm = compute_dual_metrics(m)
        interior = np.all((m.coords > 1e-12) & (m.coords < 1 - 1e-12), axis=1)
        vols = dm.dual_volumes[interior]
        assert np.allclose(vols, vols[0])


class TestClosure:
    """The discrete Gauss identity that makes the flux loop conservative."""

    def test_closure_uniform(self, tiny_mesh):
        dm = compute_dual_metrics(tiny_mesh)
        assert dm.closure_defect(tiny_mesh.edges).max() < 1e-12

    def test_closure_jittered(self, small_mesh, small_dual):
        assert small_dual.closure_defect(small_mesh.edges).max() < 1e-12

    def test_closure_graded(self, small_wing_mesh):
        dm = compute_dual_metrics(small_wing_mesh)
        assert dm.closure_defect(small_wing_mesh.edges).max() < 1e-12

    def test_boundary_normals_sum_to_zero(self, small_dual):
        # A closed surface's area vectors sum to zero.
        assert np.abs(small_dual.bnd_vertex_normals.sum(axis=0)).max() < 1e-12


class TestBoundary:
    def test_boundary_face_count_box(self):
        m = box_mesh(4, 4, 4)
        dm = compute_dual_metrics(m)
        # Kuhn subdivision: each boundary quad face of the 3x3x3 block
        # splits into 2 triangles; 6 faces x 9 quads x 2.
        assert dm.bnd_faces.shape[0] == 6 * 9 * 2

    def test_boundary_vertices_on_hull(self, small_mesh, small_dual):
        bverts = small_dual.boundary_vertices
        on_hull = np.any((small_mesh.coords[bverts] < 1e-9)
                         | (small_mesh.coords[bverts] > 1 - 1e-9), axis=1)
        assert np.all(on_hull)

    def test_boundary_area_total(self):
        m = box_mesh(4, 4, 4)
        dm = compute_dual_metrics(m)
        # Unit cube: the boundary triangles' areas sum to 6.  (Vertex
        # normals cannot be summed by norm — at cube edges they merge
        # two orthogonal faces.)
        va, vb, vc = (m.coords[dm.bnd_faces[:, k]] for k in range(3))
        areas = 0.5 * np.linalg.norm(np.cross(vb - va, vc - va), axis=1)
        assert np.isclose(areas.sum(), 6.0, rtol=1e-12)

    def test_boundary_normals_point_outward(self):
        m = box_mesh(4, 4, 4)
        dm = compute_dual_metrics(m)
        bverts = dm.boundary_vertices
        center = np.array([0.5, 0.5, 0.5])
        outward = np.einsum("ij,ij->i", dm.bnd_vertex_normals[bverts],
                            m.coords[bverts] - center)
        assert np.all(outward > 0)


class TestEdgeNormals:
    def test_orientation_roughly_along_edge(self, small_mesh, small_dual):
        e = small_mesh.edges
        d = small_mesh.coords[e[:, 1]] - small_mesh.coords[e[:, 0]]
        dots = np.einsum("ij,ij->i", small_dual.edge_normals, d)
        # Median-dual faces of a reasonable mesh face from a toward b.
        assert (dots > 0).mean() > 0.95

    def test_linear_field_gradient_exact(self, small_mesh, small_dual):
        """Green-Gauss with dual normals is exact for linear fields —
        a direct consequence of the closure identity."""
        from repro.euler.reconstruction import green_gauss_gradients
        g = np.array([1.5, -2.0, 0.75])
        q = (small_mesh.coords @ g)[:, None]
        grad = green_gauss_gradients(small_mesh, small_dual, q)
        interior = np.linalg.norm(small_dual.bnd_vertex_normals, axis=1) == 0
        assert np.allclose(grad[interior, 0, :], g, atol=1e-10)


def _tangled(m, nx, ny, nz):
    """True when the jitter pushed a vertex through a face of one of
    its tets: the regular grid's (positively oriented) tets, evaluated
    at the jittered coordinates, then have a non-positive signed volume.
    ``box_mesh`` fixes orientation *after* jittering, so ``m`` itself
    relabels such a tet positive and ``tet_volumes()`` cannot tell."""
    grid_tets = Mesh(m.coords, box_mesh(nx, ny, nz).tets, m.edges)
    return bool(np.any(grid_tets.tet_volumes() <= 0))


@settings(deadline=None, max_examples=8)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4),
       st.floats(0.0, 0.35), st.integers(0, 5))
def test_property_dual_metrics_consistent(nx, ny, nz, jitter, seed):
    m = box_mesh(nx, ny, nz, jitter=jitter, seed=seed)
    dm = compute_dual_metrics(m)
    assert np.all(dm.dual_volumes > 0)
    assert np.isclose(dm.dual_volumes.sum(), m.tet_volumes().sum())
    # The closed-surface identity holds exactly when the draw is a
    # valid mesh; a tangled one (see below) overlaps itself.
    closed = dm.closure_defect(m.edges).max() < 1e-11
    assert closed == (not _tangled(m, nx, ny, nz))


@pytest.mark.xfail(strict=True, reason=(
    "mesh/tetgen.py applies _fix_orientation after the jitter, so an "
    "inverted tet is relabelled positive (ROADMAP 5(a)); the generator "
    "fix re-baselines benchmarks/e2e and deletes this test"))
def test_jitter_can_tangle_the_mesh():
    """What a valid generator would guarantee.  Today: hypothesis'
    falsifying box (1 tet inverted, closure defect 0.077) and the
    30x20x14 wing of two e2e workloads (2 of 42,978 tets inverted at
    the default jitter 0.25; 8 interior vertices off by up to 1.6e-3)."""
    box = box_mesh(4, 3, 4, jitter=0.3125, seed=0)
    wing = wing_mesh(30, 20, 14)
    open_vertices = [
        int((compute_dual_metrics(m).closure_defect(m.edges) > 1e-11).sum())
        for m in (box, wing)]
    assert open_vertices == [0, 0]      # today [4, 8]


#: sha1 of every mesh and dual-metric array of the three wing sizes the
#: benchmark builds, recorded before the lexsorted boundary-face keys
#: and the one-sort BFS ordering replaced ``np.unique(axis=0)`` and the
#: per-vertex neighbour sorts: those rewrites must be bitwise neutral.
WING_ARRAY_SHA1 = {
    (30, 20, 14): {
        "coords": "f4334d3c9b9e1e12af83c1f7f1bfc2d5d23d47b4",
        "tets": "ebb9d3b068db2e7e9af2876b32ffeebab7e5bce8",
        "edges": "6c49d70e95b482e0c7605215270c25b5f62a6bca",
        "edge_normals": "46e1891472550920b3d8048544e903f39f9bd541",
        "dual_volumes": "c85a8493699ac440db1f8b4e4c4e41b732027c9f",
        "bnd_faces": "a4b7324deed37a39b516cef33a5a8b0932fc7880",
        "bnd_vertex_normals": "b375b787561ea793e84b89b0cb8cebca0e7fb2ae",
    },
    (22, 14, 10): {
        "coords": "224fb8eb5a0456bc316f9099ad6d32158639b6e1",
        "tets": "24e4680242064d444a1e4df881ddb63e3d7a7962",
        "edges": "230c997380dbd20233dbe4d30507a657f030cb9a",
        "edge_normals": "6d431fc1f037409a4e3356c8a8fa538b018f5ecf",
        "dual_volumes": "33d535979599818d00e469fa1bb778f25c4666f3",
        "bnd_faces": "ac02570c6e04cde1536de88671a465a8bc19baf5",
        "bnd_vertex_normals": "f004fcdcaa72382a4b81457cdcefd47942f18119",
    },
    (13, 9, 7): {
        "coords": "f048a36dce91e6df6fdedfa08bea51b8f1ddf6f7",
        "tets": "3175e09142b403a431409843f2fde9234abfa01c",
        "edges": "0a231b1c5364330c40cde4918eeeda0a3973506e",
        "edge_normals": "9e9ef899d168f847d00c2a97e6454f6d6842a893",
        "dual_volumes": "76a3a9ce7b8731431fdbe967acd28fffedabf9d2",
        "bnd_faces": "02cf45d5e3902f3fb238da2f6358799660cd30ee",
        "bnd_vertex_normals": "ac60655a39d981547f7ea5c6120f2b6994f63d13",
    },
}


@pytest.mark.parametrize("dims", sorted(WING_ARRAY_SHA1))
def test_wing_mesh_arrays_pinned(dims):
    import hashlib

    from repro import wing_problem
    prob = wing_problem(*dims)
    mesh, dual = prob.mesh, prob.disc.dual
    arrays = {"coords": mesh.coords, "tets": mesh.tets, "edges": mesh.edges,
              "edge_normals": dual.edge_normals,
              "dual_volumes": dual.dual_volumes,
              "bnd_faces": dual.bnd_faces,
              "bnd_vertex_normals": dual.bnd_vertex_normals}
    got = {name: hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()
           for name, a in arrays.items()}
    assert got == WING_ARRAY_SHA1[dims]


def test_boundary_faces_exact_for_large_vertex_ids():
    """The face count compares whole triples, so vertex ids far past
    any packed-key range give the same faces, shifted."""
    from repro import wing_problem
    from repro.mesh.edges import boundary_faces
    tets = wing_problem(5, 4, 3).mesh.tets
    shift = 2 ** 40
    assert np.array_equal(boundary_faces(tets + shift),
                          boundary_faces(tets) + shift)
