"""Functional SPMD execution: distributed kernels must equal sequential.

The strongest validation of the parallel layer: running the flux loop
and SpMV with strictly rank-local data + ghost exchanges reproduces
the sequential kernels bit for bit, and the observed communication
matches the cost model's GhostExchangePlan.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler import wing_problem
from repro.parallel import (GhostExchange, SPMDLayout, build_exchange_plan,
                            distributed_matvec, distributed_residual)
from repro.parallel.spmd import gather_structs
from repro.partition import kway_partition, pmetis_partition
from repro.telemetry import TraceRecorder


@pytest.fixture(scope="module")
def setup():
    prob = wing_problem(9, 7, 5)
    labels = kway_partition(prob.mesh.vertex_graph(), 6, seed=0)
    layout = SPMDLayout.build(prob.mesh.edges, labels)
    rng = np.random.default_rng(0)
    q = prob.initial.flat() + 0.05 * rng.standard_normal(
        prob.disc.num_unknowns)
    return prob, labels, layout, q


class TestLayout:
    def test_owned_partition_disjoint_cover(self, setup):
        prob, labels, layout, _ = setup
        allv = np.concatenate([rd.owned for rd in layout.ranks])
        assert np.array_equal(np.sort(allv),
                              np.arange(prob.mesh.num_vertices))

    def test_ghosts_match_plan(self, setup):
        prob, labels, layout, _ = setup
        plan = build_exchange_plan(prob.mesh.vertex_graph(), labels)
        for rd in layout.ranks:
            assert rd.ghosts.size == plan.ghosts[rd.rank]

    def test_halo_edges_counted_twice(self, setup):
        prob, labels, layout, _ = setup
        total = sum(rd.edge_ids.size for rd in layout.ranks)
        la = labels[prob.mesh.edges[:, 0]]
        lb = labels[prob.mesh.edges[:, 1]]
        cut = int((la != lb).sum())
        assert total == prob.mesh.num_edges + cut

    def test_ghosts_not_owned(self, setup):
        _, _, layout, _ = setup
        for rd in layout.ranks:
            assert np.intersect1d(rd.owned, rd.ghosts).size == 0

    @pytest.mark.parametrize("labelling", ["kway", "pmetis", "empty-rank"])
    def test_local_index_world_maps_back_to_global(self, setup, labelling):
        """Every rank's local numbering, translated back through
        ``local_vertices``, is the global mesh it was cut from, and
        each rank owns exactly its label's vertices (so the owned sets
        partition them)."""
        prob, labels, _, _ = setup
        edges = prob.mesh.edges
        if labelling == "pmetis":
            labels = pmetis_partition(prob.mesh.vertex_graph(), 4, seed=0)
        elif labelling == "empty-rank":
            labels = np.where(labels >= 2, labels + 1, labels)  # no rank 2
        layout = SPMDLayout.build(edges, labels)
        assert layout.nranks == int(labels.max()) + 1
        for rd in layout.ranks:
            assert rd.local_edges.shape == (rd.edge_ids.size, 2)
            assert np.array_equal(rd.local_vertices[rd.local_edges],
                                  edges[rd.edge_ids])
            assert np.array_equal(rd.ghost_owner, labels[rd.ghosts])
            assert np.array_equal(rd.owned, np.flatnonzero(labels == rd.rank))
        if labelling == "empty-rank":
            assert layout.ranks[2].n_local == 0


class TestDistributedKernels:
    def test_residual_exact(self, setup):
        prob, _, layout, q = setup
        r_dist = distributed_residual(prob.disc, layout, q)
        r_seq = prob.disc.residual(q, second_order=False)
        assert np.array_equal(r_dist, r_seq)   # bitwise

    def test_residual_exact_pmetis(self, setup):
        """Partition-independence: any valid partition reproduces the
        sequential result."""
        prob, _, _, q = setup
        labels = pmetis_partition(prob.mesh.vertex_graph(), 5, seed=1)
        layout = SPMDLayout.build(prob.mesh.edges, labels)
        r_dist = distributed_residual(prob.disc, layout, q)
        r_seq = prob.disc.residual(q, second_order=False)
        assert np.allclose(r_dist, r_seq, atol=1e-14)

    def test_matvec_exact(self, setup):
        prob, _, layout, q = setup
        jac = prob.disc.assemble_jacobian(q)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(jac.shape[0])
        assert np.allclose(distributed_matvec(jac, layout, x), jac @ x,
                           atol=1e-14)

    def test_threads_keyword_is_gone(self, setup):
        # Deleted in PR 20: a loud TypeError, not a silent 1-thread run.
        prob, _, layout, q = setup
        jac = prob.disc.assemble_jacobian(q)
        with pytest.raises(TypeError):
            distributed_matvec(jac, layout, q, threads=2)

    def test_single_rank_trivial(self, setup):
        prob, _, _, q = setup
        labels = np.zeros(prob.mesh.num_vertices, dtype=np.int64)
        layout = SPMDLayout.build(prob.mesh.edges, labels)
        assert layout.ranks[0].ghosts.size == 0
        r = distributed_residual(prob.disc, layout, q)
        assert np.array_equal(r, prob.disc.residual(q, second_order=False))


class TestExchangeAccounting:
    def test_message_count_bounded_by_neighbor_pairs(self, setup):
        prob, labels, layout, q = setup
        plan = build_exchange_plan(prob.mesh.vertex_graph(), labels)
        ex = GhostExchange(layout, 4)
        distributed_residual(prob.disc, layout, q, ex)
        # One message per (rank, neighbour) pair per refresh.
        assert ex.messages == int(plan.neighbors.sum())

    def test_bytes_match_plan(self, setup):
        prob, labels, layout, q = setup
        plan = build_exchange_plan(prob.mesh.vertex_graph(), labels)
        ex = GhostExchange(layout, 4)
        distributed_residual(prob.disc, layout, q, ex)
        assert ex.bytes_moved == plan.ghosts.sum() * 4 * 8

    def test_counters_mirror_recorder(self, setup):
        """GhostExchange totals and TraceRecorder counters agree."""
        prob, _, layout, q = setup
        rec = TraceRecorder()
        ex = GhostExchange(layout, 4, recorder=rec)
        distributed_residual(prob.disc, layout, q, ex, recorder=rec)
        assert rec.counter("messages") == ex.messages
        assert rec.counter("bytes") == ex.bytes_moved
        # One span per receiving rank per refresh (messages are finer:
        # one per (receiver, owner) pair).
        with_ghosts = sum(1 for rd in layout.ranks if rd.ghosts.size)
        assert rec.phase_calls("ghost_exchange") == with_ghosts

    def test_stale_layout_raises(self, setup):
        """A ghost attributed to a rank that does not own it must be a
        hard error, not a silently-wrong searchsorted gather."""
        prob, _, layout, q = setup
        bad = copy.deepcopy(layout)
        rd = bad.ranks[0]
        nranks = len(bad.ranks)
        rd.ghost_owner[0] = (rd.ghost_owner[0] + 1) % nranks
        with pytest.raises(ValueError, match="stale SPMD layout"):
            distributed_residual(prob.disc, bad, q)

    def test_exchange_overwrites_stale_ghosts(self, setup):
        prob, _, layout, q = setup
        local = [np.full((rd.n_local, 4), np.nan) for rd in layout.ranks]
        qr = q.reshape(-1, 4)
        for rd, lq in zip(layout.ranks, local):
            lq[: rd.n_owned] = qr[rd.owned]
        GhostExchange(layout, 4).refresh(local)
        for rd, lq in zip(layout.ranks, local):
            assert not np.isnan(lq).any()
            assert np.array_equal(lq[rd.n_owned:], qr[rd.ghosts])


class TestDtypePreservation:
    """Working precision follows the vector (paper Sec. 3.2's knob):
    fp32 state in, fp32 residual/matvec out — the NaN scratch fill and
    the accumulators must not promote to float64."""

    @settings(deadline=None, max_examples=8)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           nparts=st.integers(2, 6), seed=st.integers(0, 100))
    def test_residual_preserves_dtype(self, setup, dtype, nparts, seed):
        prob, _, _, q = setup
        labels = kway_partition(prob.mesh.vertex_graph(), nparts, seed=seed)
        layout = SPMDLayout.build(prob.mesh.edges, labels)
        r = distributed_residual(prob.disc, layout, q.astype(dtype))
        assert r.dtype == dtype
        r64 = distributed_residual(prob.disc, layout, q.astype(np.float64))
        assert np.allclose(r, r64, atol=1e-3 if dtype == np.float32
                           else 1e-14)

    @settings(deadline=None, max_examples=8)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           nparts=st.integers(2, 6), seed=st.integers(0, 100))
    def test_matvec_preserves_dtype(self, setup, dtype, nparts, seed):
        prob, _, _, q = setup
        labels = kway_partition(prob.mesh.vertex_graph(), nparts, seed=seed)
        layout = SPMDLayout.build(prob.mesh.edges, labels)
        jac = prob.disc.assemble_jacobian(q)
        x = np.random.default_rng(seed).standard_normal(
            jac.shape[0]).astype(dtype)
        y = distributed_matvec(jac, layout, x)
        assert y.dtype == dtype
        assert np.allclose(y, jac @ x.astype(np.float64),
                           atol=1e-2 if dtype == np.float32 else 1e-12)


class TestInstrumentedIdentity:
    def test_residual_bitwise_identical_with_recorder(self, setup):
        prob, _, layout, q = setup
        plain = distributed_residual(prob.disc, layout, q)
        rec = TraceRecorder()
        traced = distributed_residual(prob.disc, layout, q,
                                      GhostExchange(layout, 4, recorder=rec),
                                      recorder=rec)
        assert np.array_equal(plain, traced)     # bitwise
        assert rec.phase_seconds("flux") > 0
        assert rec.wait_seconds("flux") >= 0
        assert len(rec.ranks("flux")) == len(layout.ranks)

    def test_matvec_bitwise_identical_with_recorder(self, setup):
        prob, _, layout, q = setup
        jac = prob.disc.assemble_jacobian(q)
        x = np.random.default_rng(3).standard_normal(jac.shape[0])
        rec = TraceRecorder()
        assert np.array_equal(distributed_matvec(jac, layout, x),
                              distributed_matvec(jac, layout, x,
                                                 recorder=rec))
        assert rec.phase_calls("matvec") == len(layout.ranks)


class TestGatherCache:
    def test_cache_hit_on_identity(self, setup):
        prob, _, layout, q = setup
        layout.gather_cache.clear()
        jac = prob.disc.shifted_jacobian(q, 10.0)
        rd = layout.ranks[0]
        s1 = gather_structs(jac, layout, rd)
        s2 = gather_structs(jac, layout, rd)
        assert s1 is s2

    def test_cache_hit_on_equal_pattern(self, setup):
        """A numerically-different matrix with the same sparsity reuses
        the structs (the jittered-mesh warm path)."""
        prob, _, layout, q = setup
        layout.gather_cache.clear()
        jac1 = prob.disc.shifted_jacobian(q, 10.0)
        jac2 = prob.disc.shifted_jacobian(q + 0.01, 5.0)
        # force distinct pattern objects (the discretization may share
        # them) so the equality fallback, not identity, is what hits
        jac2.indptr = jac2.indptr.copy()
        jac2.indices = jac2.indices.copy()
        assert jac1.indptr is not jac2.indptr
        rd = layout.ranks[0]
        s1 = gather_structs(jac1, layout, rd)
        s2 = gather_structs(jac2, layout, rd)
        assert s1 is s2

    def test_cached_matvec_matches_uncached(self, setup):
        prob, _, layout, q = setup
        layout.gather_cache.clear()
        jac = prob.disc.shifted_jacobian(q, 10.0)
        y1 = distributed_matvec(jac, layout, q)     # cold: fills cache
        y2 = distributed_matvec(jac, layout, q)     # warm: cache hit
        assert np.array_equal(y1, y2)
