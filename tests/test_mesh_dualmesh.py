"""Median-dual metrics: the conservation-critical geometric identities."""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (Mesh, apply_orderings, box_mesh, bump_mesh,
                        compute_dual_metrics, edges_from_tets,
                        shuffle_vertices, unit_cube_mesh, wing_mesh)
from repro.mesh import dualmesh
from repro.mesh.dualmesh import _EDGE_OPPOSITE, DualMetrics
from repro.mesh.edges import (TET_EDGE_LOCAL, TET_FACE_LOCAL, boundary_faces,
                              tet_edge_indices)
from tests.helpers import closure_defect


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
        assert closure_defect(dm, tiny_mesh.edges).max() < 1e-12

    def test_closure_jittered(self, small_mesh, small_dual):
        assert closure_defect(small_dual, small_mesh.edges).max() < 1e-12

    def test_closure_graded(self, small_wing_mesh):
        dm = compute_dual_metrics(small_wing_mesh)
        assert closure_defect(dm, small_wing_mesh.edges).max() < 1e-12

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
    closed = closure_defect(dm, m.edges).max() < 1e-11
    assert closed == (not _tangled(m, nx, ny, nz))


@pytest.mark.xfail(strict=True, reason=(
    "mesh/tetgen.py applies _fix_orientation after the jitter, so an "
    "inverted tet is relabelled positive (ROADMAP item 1); the generator "
    "fix re-baselines benchmarks/e2e and deletes this test"))
def test_jitter_can_tangle_the_mesh():
    """What a valid generator would guarantee.  Today: hypothesis'
    falsifying box (1 tet inverted, closure defect 0.077) and the
    30x20x14 wing of two e2e workloads (2 of 42,978 tets inverted at
    the default jitter 0.25; 8 interior vertices off by up to 1.6e-3)."""
    box = box_mesh(4, 3, 4, jitter=0.3125, seed=0)
    wing = wing_mesh(30, 20, 14)
    open_vertices = [
        int((closure_defect(compute_dual_metrics(m), m.edges) > 1e-11).sum())
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
    # The service stream's wings B and C, recorded before the chunked
    # dual pass, the one-sort edge maps and the level-synchronous RCM.
    (20, 13, 9): {
        "coords": "98ccacbf477161e4a718103368c926f8df5afc45",
        "tets": "0a86b7156da2ecfde1588a726e8e848515fc488e",
        "edges": "5785451220976cc8fa6402aa5ae41b6fa14ffffd",
        "edge_normals": "587dbef1a0d44632f469c8578b36f572818f91ae",
        "dual_volumes": "08ca609d62580e3b0066be8b112b359c69709314",
        "bnd_faces": "78827128ad81f02f88b44e163a7af030635a3aeb",
        "bnd_vertex_normals": "0d9e73cacbb4e1d784973815c263a551a57036a9",
    },
    (18, 12, 8): {
        "coords": "6ab1ddf2d8b85067a364a45385b203a82b06bb09",
        "tets": "bd4bf9b6ff7f941d489dff5798a98ef59935c34f",
        "edges": "6e4a8dd22dd1b098216f4d466db0b8f2fb85ebac",
        "edge_normals": "56953bc4c05e8e37080250ece02d1a2dd93922c1",
        "dual_volumes": "5c30629ed8d64e4443b89aa8957428389fa1cc10",
        "bnd_faces": "f8d6d413b2ef7823166f60664cf90878cd8f4015",
        "bnd_vertex_normals": "b2eba2ee51ce10f6b8a77281e5de1c389556e5a6",
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
    tets = wing_problem(5, 4, 3).mesh.tets
    for shift in (2 ** 40, 2 ** 62):
        assert np.array_equal(boundary_faces(tets + shift),
                              boundary_faces(tets) + shift)


# ----------------------------------------------------------------------
# The whole-mesh formulations the chunked dual pass and the one-sort
# edge maps replaced, kept here as oracles: the rewrite gives the same
# bits on every mesh, edge order and chunk size.
# ----------------------------------------------------------------------

def edges_from_tets_unique(tets, num_vertices):
    """``np.unique`` over the packed keys of every tet edge."""
    pairs = tets[:, TET_EDGE_LOCAL].reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    uniq = np.unique(lo * np.int64(num_vertices) + hi)
    return np.stack([uniq // num_vertices, uniq % num_vertices], axis=1)


def tet_edge_indices_searchsorted(tets, edges, num_vertices):
    """Each tet edge's key looked up in the sorted edge keys at random."""
    pairs = tets[:, TET_EDGE_LOCAL]
    lo = np.minimum(pairs[..., 0], pairs[..., 1])
    hi = np.maximum(pairs[..., 0], pairs[..., 1])
    key = lo * np.int64(num_vertices) + hi
    elo = np.minimum(edges[:, 0], edges[:, 1])
    ehi = np.maximum(edges[:, 0], edges[:, 1])
    ekey = elo * np.int64(num_vertices) + ehi
    order = np.argsort(ekey)
    pos = np.searchsorted(ekey[order], key)
    idx = order[np.minimum(pos, ekey.size - 1)]
    if not np.all(ekey[idx] == key):
        raise ValueError("tets reference an edge not present in the edge list")
    sign = np.where(pairs[..., 0] == edges[idx][..., 0], 1, -1).astype(np.int64)
    return idx, sign


def boundary_faces_rowsort(tets):
    """Row-sorted face triples, lexsorted and compared a row at a time."""
    faces = tets[:, TET_FACE_LOCAL].reshape(-1, 3)
    key = np.sort(faces, axis=1)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = (key[1:] != key[:-1]).any(axis=1)
    group = np.cumsum(new) - 1
    single = np.empty(len(faces), dtype=bool)
    single[order] = np.bincount(group)[group] == 1
    return faces[single]


def dual_metrics_whole_mesh(mesh):
    """One ``(nt, 6, 3)`` pass over every tet and ``np.add.at`` scatters."""
    p, tets, edges, n = mesh.coords, mesh.tets, mesh.edges, mesh.num_vertices
    vols = mesh.tet_volumes()
    if np.any(vols <= 0):
        raise ValueError("mesh has non-positive tet volumes")
    dual_volumes = np.zeros(n)
    np.add.at(dual_volumes, tets.ravel(), np.repeat(vols / 4.0, 4))
    corners = p[tets]
    centroid = corners.mean(axis=1)
    A = corners[:, TET_EDGE_LOCAL[:, 0]]
    B = corners[:, TET_EDGE_LOCAL[:, 1]]
    C = corners[:, _EDGE_OPPOSITE[:, 0]]
    D = corners[:, _EDGE_OPPOSITE[:, 1]]
    mid = 0.5 * (A + B)
    f1 = (A + B + C) / 3.0
    f2 = (A + B + D) / 3.0
    area = 0.5 * np.cross(centroid[:, None, :] - mid, f2 - f1)
    sign = np.sign(np.einsum("teX,teX->te", area, B - A))
    sign[sign == 0] = 1.0
    area *= sign[..., None]
    eidx, esign = tet_edge_indices_searchsorted(tets, edges, n)
    edge_normals = np.zeros((edges.shape[0], 3))
    np.add.at(edge_normals, eidx.ravel(),
              (area * esign[..., None]).reshape(-1, 3))
    bfaces = boundary_faces_rowsort(tets)
    bnd_vertex_normals = np.zeros((n, 3))
    if bfaces.size:
        va, vb, vc = (p[bfaces[:, k]] for k in range(3))
        third = 0.5 * np.cross(vb - va, vc - va) / 3.0
        for k in range(3):
            np.add.at(bnd_vertex_normals, bfaces[:, k], third)
    return DualMetrics(edge_normals, dual_volumes, bfaces, bnd_vertex_normals)


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def _mesh(kind, dims, jitter, seed, shuffle, vertex, edge, reverse):
    # the box takes any jitter; the wing and the bump jitter their own
    mesh = {"box": lambda: box_mesh(*dims, jitter=jitter, seed=seed),
            "wing": lambda: wing_mesh(*dims, seed=seed),
            "bump": lambda: bump_mesh(*dims)}[kind]()
    if shuffle:
        mesh = shuffle_vertices(mesh, seed=seed)
    mesh = apply_orderings(mesh, vertex, edge, seed=seed)
    if reverse:
        # Point about half the edges high to low.
        flip = np.random.default_rng(seed).random(mesh.num_edges) < 0.5
        mesh = mesh.with_edges(np.where(flip[:, None], mesh.edges[:, ::-1],
                                        mesh.edges))
    return mesh


_meshes = st.builds(
    _mesh, st.sampled_from(["box", "bump", "wing"]),
    st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
    st.floats(0.0, 0.3), st.integers(0, 1000), st.booleans(),
    st.sampled_from(["natural", "random", "rcm"]),
    st.sampled_from(["sorted", "random", "colored"]), st.booleans())


class TestWholeMeshOracle:
    """Jittered box, wing and bump meshes, shuffled or not, under every
    vertex ordering, with edges sorted, random or color-major (so they
    arrive unsorted) and about half of them reversed or none, at chunk
    sizes that split the tets unevenly: every array bitwise the
    whole-mesh pass's."""

    @settings(deadline=None, max_examples=40)
    @given(_meshes, st.sampled_from([1, 7, 64, dualmesh._TET_CHUNK]))
    def test_dual_metrics_bitwise(self, mesh, chunk):
        with patch.object(dualmesh, "_TET_CHUNK", chunk):
            got = compute_dual_metrics(mesh)
        want = dual_metrics_whole_mesh(mesh)
        for name in ("edge_normals", "dual_volumes", "bnd_faces",
                     "bnd_vertex_normals"):
            assert _same_bits(getattr(got, name), getattr(want, name)), name

    @settings(deadline=None, max_examples=40)
    @given(_meshes)
    def test_edge_maps_bitwise(self, mesh):
        tets, edges, n = mesh.tets, mesh.edges, mesh.num_vertices
        assert _same_bits(edges_from_tets(tets, n),
                          edges_from_tets_unique(tets, n))
        for got, want in zip(tet_edge_indices(tets, edges, n),
                             tet_edge_indices_searchsorted(tets, edges, n)):
            assert _same_bits(got, want)
        assert _same_bits(boundary_faces(tets), boundary_faces_rowsort(tets))

    @settings(deadline=None, max_examples=20)
    @given(_meshes, st.integers(0, 2**32 - 1))
    def test_missing_edge_still_raises(self, mesh, pick):
        """Whichever edge is dropped (the first, last or any key), both
        formulations refuse the edge list."""
        edges = np.delete(mesh.edges, pick % mesh.num_edges, axis=0)
        for lookup in (tet_edge_indices, tet_edge_indices_searchsorted):
            with pytest.raises(ValueError, match="not present"):
                lookup(mesh.tets, edges, mesh.num_vertices)
        with pytest.raises(ValueError, match="not present"):
            compute_dual_metrics(mesh.with_edges(edges))

    @pytest.mark.parametrize("end", [0, -1])
    def test_missing_extreme_key_raises(self, end):
        m = box_mesh(3, 3, 3)
        edges = np.delete(m.edges, np.arange(m.num_edges)[end], axis=0)
        with pytest.raises(ValueError, match="not present"):
            tet_edge_indices(m.tets, edges, m.num_vertices)


def test_edges_from_tets_rejects_ids_past_num_vertices():
    """Keys packed in base ``num_vertices`` collide when an id reaches
    it: 27 vertex ids in base 10 gave 90 edges of the true 98."""
    tets = box_mesh(3, 3, 3).tets
    assert edges_from_tets(tets, 27).shape == (98, 2)
    for n in (10, 26):
        with pytest.raises(ValueError, match="lie in"):
            edges_from_tets(tets, n)
    with pytest.raises(ValueError, match="lie in"):
        edges_from_tets(tets - 1, 27)


def test_dual_metrics_peak_memory_is_linear():
    """``compute_dual_metrics`` on the 8,400-vertex wing allocates at
    most 25 MB at its peak, as ``tracemalloc`` counts numpy's buffers:
    the whole-mesh pass peaked at 89 MB (84.6 MiB)."""
    mesh = apply_orderings(wing_mesh(30, 20, 14), "rcm", "sorted")
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        compute_dual_metrics(mesh)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 25e6, peak
