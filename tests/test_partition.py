"""Partitioners: invariants and the k-MeTiS vs p-MeTiS phenomenology."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import connected_components, graph_from_edges
from repro.parallel import SPMDLayout
from repro.partition import (coarsen_graph, edge_cut, fm_refine,
                             heavy_edge_matching, kway_partition,
                             load_imbalance, partition_quality,
                             pmetis_partition, subdomain_components)
from repro.partition import bisect, refine
from repro.partition.refine import repair_contiguity
from tests.halo_oracle import arc_pass


def _check_cover(labels, n, nparts):
    labels = np.asarray(labels)
    assert labels.shape == (n,)
    assert labels.min() >= 0
    assert labels.max() < nparts
    assert np.unique(labels).size == nparts  # no empty parts


class TestCoarsening:
    def test_matching_symmetric(self, medium_graph):
        match = heavy_edge_matching(medium_graph, seed=0)
        assert np.array_equal(match[match], np.arange(medium_graph.num_vertices))

    def test_matching_respects_adjacency(self, medium_graph):
        match = heavy_edge_matching(medium_graph, seed=0)
        for v in range(medium_graph.num_vertices):
            u = match[v]
            if u != v:
                assert u in medium_graph.neighbors(v)

    def test_coarse_weight_conserved(self, medium_graph):
        lvl = coarsen_graph(medium_graph, seed=1)
        assert lvl.graph.vwgt.sum() == medium_graph.vwgt.sum()

    def test_coarse_strictly_smaller(self, medium_graph):
        lvl = coarsen_graph(medium_graph, seed=1)
        assert lvl.graph.num_vertices < medium_graph.num_vertices

    def test_projection_preserves_cut(self, medium_graph):
        """Edge cut of a coarse partition equals the cut of its
        projection (weights were accumulated for exactly this)."""
        lvl = coarsen_graph(medium_graph, seed=2)
        rng = np.random.default_rng(0)
        coarse_labels = rng.integers(0, 3, lvl.graph.num_vertices)
        fine_labels = coarse_labels[lvl.fine_to_coarse]
        assert (edge_cut(lvl.graph, coarse_labels)
                == edge_cut(medium_graph, fine_labels))


class TestKway:
    @pytest.mark.parametrize("nparts", [2, 5, 8])
    def test_valid_partition(self, medium_graph, nparts):
        labels = kway_partition(medium_graph, nparts, seed=0)
        _check_cover(labels, medium_graph.num_vertices, nparts)

    def test_single_part(self, medium_graph):
        labels = kway_partition(medium_graph, 1)
        assert np.all(labels == 0)

    def test_balance_tolerance_met(self, medium_graph):
        labels = kway_partition(medium_graph, 8, seed=1)
        assert load_imbalance(labels) <= 1.15

    def test_mostly_connected_subdomains(self, medium_graph):
        labels = kway_partition(medium_graph, 8, seed=0)
        comps = subdomain_components(medium_graph, labels)
        assert np.maximum(comps - 1, 0).sum() <= 1

    def test_cut_beats_random(self, medium_graph):
        rng = np.random.default_rng(0)
        rand = rng.integers(0, 8, medium_graph.num_vertices)
        ours = kway_partition(medium_graph, 8, seed=0)
        assert edge_cut(medium_graph, ours) < 0.5 * edge_cut(medium_graph, rand)

    def test_too_many_parts_raises(self):
        g = graph_from_edges(3, [[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            kway_partition(g, 5)


class TestPMetis:
    @pytest.mark.parametrize("nparts", [2, 3, 8])
    def test_valid_partition(self, medium_graph, nparts):
        labels = pmetis_partition(medium_graph, nparts)
        _check_cover(labels, medium_graph.num_vertices, nparts)

    def test_near_perfect_balance(self, medium_graph):
        for nparts in (2, 4, 8, 16):
            labels = pmetis_partition(medium_graph, nparts)
            assert load_imbalance(labels) <= 1.03

    def test_nonpow2_parts(self, medium_graph):
        labels = pmetis_partition(medium_graph, 6)
        _check_cover(labels, medium_graph.num_vertices, 6)
        assert load_imbalance(labels) <= 1.05


class TestPhenomenology:
    """The structural contrast driving the paper's Fig. 4."""

    def test_kway_connected_pmetis_balanced(self, medium_mesh, medium_graph):
        p = 16
        kl = kway_partition(medium_graph, p, seed=1)
        pl = pmetis_partition(medium_graph, p)
        qk = partition_quality(medium_graph,
                               SPMDLayout.build(medium_mesh.edges, kl))
        qp = partition_quality(medium_graph,
                               SPMDLayout.build(medium_mesh.edges, pl))
        # p-metis balances better ...
        assert qp.imbalance <= qk.imbalance + 1e-9
        # ... k-way fragments less (or equal).
        assert qk.total_extra_components <= qp.total_extra_components

    def test_fragmentation_grows_with_parts(self, medium_mesh, medium_graph):
        xs = [partition_quality(medium_graph, SPMDLayout.build(
            medium_mesh.edges, pmetis_partition(medium_graph, p))
        ).total_extra_components for p in (4, 32)]
        assert xs[1] >= xs[0]

    @pytest.mark.parametrize("partition, p", [
        (functools.partial(kway_partition, seed=1), 2),
        (functools.partial(kway_partition, seed=1), 16),
        # p-MeTiS has one partition per count: two no other test here uses
        (pmetis_partition, 5), (pmetis_partition, 12)])
    def test_halo_counts_match_the_arc_pass(self, medium_mesh, medium_graph,
                                            partition, p):
        """The neighbours and interface read from the layout are the
        ones an independent pass over the graph's arcs counts."""
        labels = partition(medium_graph, p)
        q = partition_quality(medium_graph,
                              SPMDLayout.build(medium_mesh.edges, labels))
        oracle = arc_pass(medium_graph, labels)
        assert q.nparts == p
        assert q.mean_connectivity == oracle["neighbors"].mean()
        assert q.interface_total == oracle["interface"].sum()


class TestRefine:
    def test_refine_never_worsens_cut_much(self, medium_graph, monkeypatch):
        monkeypatch.setattr(refine, "_BALANCE_TOL", 1.3)
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, medium_graph.num_vertices)
        refined = fm_refine(medium_graph, labels, 4)
        assert (edge_cut(medium_graph, refined)
                <= edge_cut(medium_graph, labels))

    def test_strict_balance_preserved(self, medium_graph, monkeypatch):
        # the bisection alone: pmetis_partition's own refinement skipped
        monkeypatch.setattr(bisect, "fm_refine", lambda g, labels, *a, **k:
                            labels)
        labels = pmetis_partition(medium_graph, 4)
        before = load_imbalance(labels)
        refined = fm_refine(medium_graph, labels, 4, strict_balance=True)
        assert load_imbalance(refined) <= before + 1e-9

    def test_connected_components_consistent(self, medium_graph):
        labels = pmetis_partition(medium_graph, 8)
        comp = connected_components(medium_graph, labels)
        # Same component -> same label.
        for c in np.unique(comp):
            assert np.unique(labels[comp == c]).size == 1
        # Totals agree with the per-part counter.
        per_part = subdomain_components(medium_graph, labels)
        assert int(comp.max()) + 1 == int(per_part.sum())

    def test_repair_contiguity_heals(self, medium_graph):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, medium_graph.num_vertices)  # fragmented
        healed = repair_contiguity(medium_graph, labels, 3)
        comps = subdomain_components(medium_graph, healed)
        assert np.maximum(comps - 1, 0).sum() == 0


class TestPinnedLabels:
    """``kway_partition``'s labels on the benchmark meshes, pinned by
    sha1: the quickstart wing (819 vertices) and the 8,400-vertex wing.
    A change of any refinement or contiguity tie-break moves them."""

    @pytest.mark.parametrize("dims,nparts,sha1", [
        ((13, 9, 7), 4, "713d96a52fa770d9a596fb6d8bb1b8f398cd1d81"),
        ((30, 20, 14), 4, "eb7b2a51674ed76b416ecf5c85920013f6ad91af"),
        ((30, 20, 14), 8, "6184d738e24b0effb02facd1e25cdf8db84432b5"),
    ])
    def test_kway_labels(self, dims, nparts, sha1):
        from repro import wing_problem
        graph = wing_problem(*dims).mesh.vertex_graph()
        labels = kway_partition(graph, nparts, seed=0)
        assert labels.dtype == np.int64
        assert hashlib.sha1(labels.tobytes()).hexdigest() == sha1


@settings(deadline=None, max_examples=10)
@given(st.integers(2, 5), st.integers(0, 20))
def test_property_partitions_cover(nparts, seed):
    from repro.mesh import unit_cube_mesh
    g = unit_cube_mesh(5, jitter=0.2, seed=seed % 3).vertex_graph()
    for fn in (functools.partial(kway_partition, seed=seed),
               pmetis_partition):
        labels = fn(g, nparts)
        assert labels.shape == (g.num_vertices,)
        assert set(np.unique(labels)) == set(range(nparts))
