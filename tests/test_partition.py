"""Partitioners: invariants and the k-MeTiS vs p-MeTiS phenomenology."""

import functools
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.graph import connected_components, graph_from_edges
from repro.kernels import capability
from repro.parallel import SPMDLayout
from repro.partition import (coarsen_graph, edge_cut, fm_refine,
                             heavy_edge_matching, kway_partition,
                             load_imbalance, partition_quality,
                             pmetis_partition, subdomain_components)
from repro.partition import bisect, refine
from repro.partition.coarsen import (contract_graph, contract_graph_ref,
                                     heavy_edge_matching_ref)
from repro.partition.refine import (fm_refine_ref, repair_contiguity,
                                    repair_contiguity_ref)
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
    A change of any refinement or contiguity tie-break moves them; both
    engines give them."""

    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    @pytest.mark.parametrize("dims,nparts,sha1", [
        ((13, 9, 7), 4, "713d96a52fa770d9a596fb6d8bb1b8f398cd1d81"),
        ((30, 20, 14), 4, "eb7b2a51674ed76b416ecf5c85920013f6ad91af"),
        ((30, 20, 14), 8, "6184d738e24b0effb02facd1e25cdf8db84432b5"),
    ])
    def test_kway_labels(self, dims, nparts, sha1, engine):
        from repro import wing_problem
        graph = wing_problem(*dims).mesh.vertex_graph()
        labels = kway_partition(graph, nparts, seed=0, engine=engine)
        assert labels.dtype == np.int64
        assert hashlib.sha1(labels.tobytes()).hexdigest() == sha1


#: the host-dependence probe: the medium wing's labels at p = 8, printed
#: as a sha1 by a fresh interpreter
_PROBE = """
import hashlib
from repro.experiments.common import default_wing
from repro.partition import kway_partition
graph = default_wing("medium").mesh.vertex_graph()
print(hashlib.sha1(kway_partition(graph, 8, seed=0).tobytes()).hexdigest())
"""


def _has_x86_v3() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("X86_V3"))


@pytest.mark.skipif(not _has_x86_v3(), reason="numpy found no X86_V3")
@pytest.mark.xfail(strict=True, reason=(
    "grow_regions orders its parts with np.argsort's default sort, whose "
    "tie order follows numpy's SIMD dispatch (ROADMAP item 5)"))
def test_labels_do_not_depend_on_numpy_dispatch():
    """The same partition under numpy's full SIMD dispatch and under
    X86_V2 alone.  Today it differs: ``grow_regions``' unstable
    ``np.argsort(weights)`` breaks ties by the sort kernel numpy
    dispatches to, so the 1,280-vertex wing's labels depend on the
    host.  A stable tie-break fixes it and moves most solve-backed
    artefacts, so it waits for their one regeneration."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    digests = []
    for disable in ("", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"):
        env = dict(os.environ, PYTHONPATH=src,
                   NPY_DISABLE_CPU_FEATURES=disable)
        out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


def _disjoint_union(graphs, isolated):
    """The graphs side by side, then ``isolated`` vertices of no edge."""
    edges, vwgt, ewgt, base = [], [], [], 0
    for g in graphs:
        src = np.repeat(np.arange(g.num_vertices), np.diff(g.xadj))
        up = src < g.adjncy         # each edge once, with its weight
        edges.append(np.stack([src[up], g.adjncy[up]], axis=1) + base)
        ewgt.append(g.ewgt[up])
        vwgt.append(g.vwgt)
        base += g.num_vertices
    vwgt.append(np.arange(1, isolated + 1))
    return graph_from_edges(base + isolated, np.concatenate(edges),
                            vwgt=np.concatenate(vwgt),
                            ewgt=np.concatenate(ewgt))


@pytest.fixture(scope="module")
def oracle_graphs():
    """The graphs each compiled partitioner phase is held to its numpy
    phase on: a mesh graph; a weighted coarse graph (two contractions
    of one); and a disconnected graph — three meshes, one of them
    weighted, and four isolated vertices — on which region growing
    stalls and the contiguity repair has fragments to move."""
    from repro.mesh import unit_cube_mesh
    mesh = unit_cube_mesh(8, jitter=0.2, seed=3).vertex_graph()
    coarse = coarsen_graph(coarsen_graph(mesh, seed=3).graph, seed=4).graph
    small = unit_cube_mesh(4, jitter=0.2, seed=1).vertex_graph()
    return {"mesh": mesh, "weighted": coarse,
            "disconnected": _disjoint_union([small, coarse, small], 4)}


def _same_outcome(ref, compiled):
    """``compiled()`` returns the array ``ref()`` returns, or raises the
    exception type it raises."""
    try:
        want = ref()
    except Exception as exc:
        with pytest.raises(type(exc)):
            compiled()
        return
    got = compiled()
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestCompiledPartitioner:
    """Each C phase of ``kway_partition`` against its numpy phase, label
    for label: heavy-edge matching, contraction, FM refinement (k-way
    and strict balance) and contiguity repair.  Without a backend (or
    under ``REPRO_KERNELS_DISABLE=1``) the compiled engine is the numpy
    phase and the tests hold trivially."""

    GRAPHS = ["mesh", "weighted", "disconnected"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_matching_and_contraction(self, oracle_graphs, name, seed):
        g = oracle_graphs[name]
        order = np.random.default_rng(seed).permutation(g.num_vertices)
        match = heavy_edge_matching(g, seed=seed, engine="compiled")
        assert np.array_equal(match, heavy_edge_matching_ref(g, order))
        want = contract_graph_ref(g, match)
        got = contract_graph(g, match, engine="compiled")
        for field in ("xadj", "adjncy", "vwgt", "ewgt"):
            a, b = getattr(want.graph, field), getattr(got.graph, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        assert np.array_equal(want.fine_to_coarse, got.fine_to_coarse)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("nparts", [2, 3, 8, 64])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_fm_refine(self, oracle_graphs, name, nparts, strict):
        """From scattered labels (long move lists, overweight parts for
        the rebalance) and from a k-way partition (few moves)."""
        g = oracle_graphs[name]
        starts = [np.random.default_rng(nparts).integers(
            0, nparts, g.num_vertices),
                  kway_partition(g, nparts, seed=1)]
        for labels, passes in zip(starts, (6, 2)):
            want = fm_refine_ref(g, labels, nparts, passes, strict)
            got = fm_refine(g, labels, nparts, passes, strict,
                            engine="compiled")
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("nparts", [2, 3, 8, 64])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_repair_contiguity(self, oracle_graphs, name, nparts):
        g = oracle_graphs[name]
        rng = np.random.default_rng(nparts + 5)
        # fragmented labels, and labels with an empty part (which keeps
        # component 0 as numpy's zero-filled keep does)
        starts = [rng.integers(0, nparts, g.num_vertices),
                  rng.integers(1, nparts, g.num_vertices)]
        for labels in starts:
            want = repair_contiguity_ref(g, labels, nparts)
            got = repair_contiguity(g, labels, nparts, engine="compiled")
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("nparts", [2, 3, 8, 64])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_kway_partition(self, oracle_graphs, name, nparts):
        g = oracle_graphs[name]
        for seed in (0, 7):
            assert np.array_equal(
                kway_partition(g, nparts, seed=seed, engine="compiled"),
                kway_partition(g, nparts, seed=seed))

    @pytest.mark.parametrize("size", ["tiny", "small", "medium", "large"])
    def test_wing_grid(self, size):
        """The wings of the experiments, at p = 2 .. 64."""
        from repro.experiments.common import default_wing
        g = default_wing(size).mesh.vertex_graph()
        for nparts in (2, 3, 8, 16, 64):
            assert np.array_equal(
                kway_partition(g, nparts, seed=0, engine="compiled"),
                kway_partition(g, nparts, seed=0)), nparts

    @pytest.mark.parametrize("bad", [-1, "past_end"])
    def test_out_of_range_adjacency_declines(self, oracle_graphs, bad):
        """Every phase declines an adjacency entry outside ``[0, n)``, and
        the compiled engine then does what the numpy phase does (raises
        on an index past the end; wraps -1 round, as numpy indexing
        does)."""
        g = oracle_graphs["mesh"]
        n = g.num_vertices
        broken = type(g)(xadj=g.xadj, adjncy=g.adjncy.copy(), vwgt=g.vwgt,
                         ewgt=g.ewgt)
        broken.adjncy[g.xadj[5]] = n if bad == "past_end" else -1
        xadj, adjncy, vwgt, ewgt = (broken.xadj, broken.adjncy,
                                    broken.vwgt, broken.ewgt)
        order = np.arange(n)
        labels = np.arange(n) % 4
        match = heavy_edge_matching_ref(g, order)
        assert kernels.heavy_edge_matching(xadj, adjncy, ewgt, order,
                                           "compiled") is None
        assert kernels.contract_graph(xadj, adjncy, vwgt, ewgt, match,
                                      "compiled") is None
        assert kernels.fm_refine(xadj, adjncy, vwgt, ewgt, labels, 4, 2,
                                 False, 1e9, "compiled") is None
        assert kernels.repair_contiguity(xadj, adjncy, vwgt, ewgt, labels,
                                         4, "compiled") is None
        drawn = np.random.default_rng(0).permutation(n)
        _same_outcome(lambda: heavy_edge_matching_ref(broken, drawn),
                      lambda: heavy_edge_matching(broken, 0, "compiled"))
        _same_outcome(
            lambda: contract_graph_ref(broken, match).fine_to_coarse,
            lambda: contract_graph(broken, match, "compiled").fine_to_coarse)
        _same_outcome(lambda: fm_refine_ref(broken, labels, 4, 2, False),
                      lambda: fm_refine(broken, labels, 4, 2,
                                        engine="compiled"))
        _same_outcome(lambda: repair_contiguity_ref(broken, labels, 4),
                      lambda: repair_contiguity(broken, labels, 4,
                                                engine="compiled"))

    def test_out_of_range_label_and_partner_decline(self, oracle_graphs):
        g = oracle_graphs["mesh"]
        n = g.num_vertices
        labels = np.arange(n) % 4
        labels[7] = 4
        match = np.arange(n)
        match[3] = n
        assert kernels.contract_graph(g.xadj, g.adjncy, g.vwgt, g.ewgt,
                                      match, "compiled") is None
        assert kernels.fm_refine(g.xadj, g.adjncy, g.vwgt, g.ewgt, labels,
                                 4, 2, False, 1e9, "compiled") is None
        assert kernels.repair_contiguity(g.xadj, g.adjncy, g.vwgt, g.ewgt,
                                         labels, 4, "compiled") is None
        _same_outcome(lambda: contract_graph_ref(g, match).fine_to_coarse,
                      lambda: contract_graph(g, match, "compiled")
                      .fine_to_coarse)
        _same_outcome(lambda: fm_refine_ref(g, labels, 4, 2, False),
                      lambda: fm_refine(g, labels, 4, 2, engine="compiled"))


class _Tripwire:
    """A stand-in C backend that fails the test on any use."""

    isa = "default"

    def __getattr__(self, name):
        raise AssertionError(f"the compiled tier was used: {name}")


class TestEngineTiers:
    """``engine="numpy"`` runs no C: a solver's constructor partitions on
    the numpy tier alone, and a machine without the C tier gives the
    compiled engine the same labels."""

    def _solver(self, engine):
        from repro import wing_problem
        from repro.core.config import PreconditionerConfig, SolverConfig
        from repro.core.driver import NKSSolver
        prob = wing_problem(7, 5, 4)
        cfg = SolverConfig(engine=engine,
                           precond=PreconditionerConfig(nparts=4))
        return prob, NKSSolver(prob.disc, cfg)

    def test_numpy_engine_makes_no_compiled_call(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS_DISABLE", raising=False)
        monkeypatch.setattr(capability, "_memo", _Tripwire())
        prob, solver = self._solver("numpy")
        assert np.array_equal(solver.partition_labels, kway_partition(
            prob.mesh.vertex_graph(), 4, seed=0))
        with pytest.raises(AssertionError, match="compiled tier"):
            self._solver("compiled")

    def test_bare_machine_partitions_on_numpy(self, monkeypatch):
        capability.invalidate()
        monkeypatch.setitem(sys.modules, "cffi", None)
        try:
            assert kernels.backend_for("compiled") is None
            prob, solver = self._solver("compiled")
            assert np.array_equal(solver.partition_labels, kway_partition(
                prob.mesh.vertex_graph(), 4, seed=0))
        finally:
            capability.invalidate()


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
