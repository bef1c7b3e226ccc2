"""Functional SPMD execution: distributed kernels must equal sequential.

The strongest validation of the parallel layer: running the flux loop
and SpMV with strictly rank-local data + ghost exchanges reproduces
the sequential kernels bit for bit.  The layout is also the halo the
performance model prices, so the scatter ``simulate_solve`` charges
must be the messages and bytes the executors book
(:class:`TestModelPricesExecution`, on the C seq matvec and, under
``REPRO_KERNELS_DISABLE=1``, on the numpy rank loop), and its counts
must match an independent pass over the graph's arcs
(:func:`tests.halo_oracle.arc_pass`, the model's own derivation before it
read the layout).  The one-pass build itself must give the arrays the
per-rank loop it replaced gives (:func:`_layout_loop`).
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler import wing_problem
from repro.euler.boundary import classify_box_boundary
from repro.mesh.dualmesh import compute_dual_metrics
from repro.experiments.ablations import _skew_partition
from repro.parallel import (GhostExchange, SPMDLayout, build_rank_work,
                            distributed_matvec, distributed_residual,
                            network_from_machine, simulate_solve)
from repro.parallel.simulate import scatter_counts
from repro.partition import kway_partition, pmetis_partition
from repro.sparse.bsr import BSRMatrix
from repro.sparse.segsum import concat_ranges
from repro.perfmodel import ASCI_RED_PPRO
from repro.telemetry import TraceRecorder
from tests.halo_oracle import arc_pass


def _layout_loop(edges, labels, a):
    """Every rank's arrays, the scatter plan's and the SpMV gather's of
    ``a``'s pattern, by the per-rank scans the layout, plan and gather
    once ran (a full-length lookup table a rank): the oracle for the
    one-pass build."""
    labels = np.asarray(labels, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64)
    n = labels.size
    la, lb = labels[edges[:, 0]], labels[edges[:, 1]]
    ranks, gather = [], []
    for r in range(int(labels.max()) + 1):
        owned = np.where(labels == r)[0]
        eids = np.where((la == r) | (lb == r))[0]
        le = edges[eids]
        ghosts = np.setdiff1d(np.unique(le), owned)
        lut = np.full(n, -1, dtype=np.int64)
        lut[np.concatenate([owned, ghosts])] = np.arange(
            owned.size + ghosts.size, dtype=np.int64)
        ranks.append(dict(owned=owned, ghosts=ghosts, edge_ids=eids,
                          local_edges=lut[le], ghost_owner=labels[ghosts]))
        starts = a.indptr[owned]
        counts = a.indptr[owned + 1] - starts
        flat = concat_ranges(starts, counts)
        gather.append((flat, lut[a.indices[flat]],
                       np.repeat(np.arange(owned.size, dtype=np.int64),
                                 counts)))
    row_off = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(
        [rd["owned"].size + rd["ghosts"].size for rd in ranks],
        dtype=np.int64)])
    owner = np.empty(n, dtype=np.int64)
    home = np.empty(n, dtype=np.int64)
    for r, rd in enumerate(ranks):
        owner[rd["owned"]] = r
        home[rd["owned"]] = np.arange(row_off[r], row_off[r]
                                      + rd["owned"].size, dtype=np.int64)
    ghost_off = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(
        [rd["ghosts"].size for rd in ranks], dtype=np.int64)])
    plan = dict(
        row_off=row_off, owner=owner, home=home, ghost_off=ghost_off,
        ghost_src=np.concatenate([np.zeros(0, dtype=np.int64)]
                                 + [home[rd["ghosts"]] for rd in ranks]),
        pairs=[int(np.unique(rd["ghost_owner"]).size) for rd in ranks])
    parts = [(np.zeros(0, dtype=np.int64),) * 3] + gather
    flat, cols, seg = (np.concatenate(p) for p in zip(*parts))
    blk_off = np.cumsum([p[0].size for p in parts], dtype=np.int64)
    return ranks, plan, (blk_off, flat, cols, seg)


def _labelling(graph, labelling, p):
    """``p``-part labels of ``graph``: k-way, p-MeTiS, k-way with an
    empty rank inserted at ``p // 2``, or k-way skewed into rank 0."""
    if labelling == "pmetis":
        return pmetis_partition(graph, p, seed=0)
    labels = kway_partition(graph, p, seed=0)
    if labelling == "empty-rank":
        return np.where(labels >= p // 2, labels + 1, labels)
    if labelling == "skewed":
        return _skew_partition(labels, p, 0.45)
    return labels


@pytest.fixture(scope="module")
def setup():
    prob = wing_problem(9, 7, 5)
    labels = kway_partition(prob.mesh.vertex_graph(), 6, seed=0)
    layout = SPMDLayout.build(prob.mesh.edges, labels)
    rng = np.random.default_rng(0)
    q = prob.initial.flat() + 0.05 * rng.standard_normal(
        prob.disc.num_unknowns)
    return prob, labels, layout, q


@functools.cache
def _compressible(flux_scheme):
    """A first-order compressible wing under ``flux_scheme``, with a
    4-part k-way layout and a perturbed state."""
    prob = wing_problem(9, 6, 5, compressible=True, second_order=False)
    prob.disc.flux_scheme = flux_scheme
    labels = kway_partition(prob.mesh.vertex_graph(), 4, seed=0)
    layout = SPMDLayout.build(prob.mesh.edges, labels)
    rng = np.random.default_rng(0)
    q = prob.initial.flat() + 0.01 * rng.standard_normal(
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
        oracle = arc_pass(prob.mesh.vertex_graph(), labels)
        for rd in layout.ranks:
            assert rd.ghosts.size == oracle["ghosts"][rd.rank]

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
        """Every rank's local numbering, translated back through its
        owned then ghost vertices, is the global mesh it was cut from,
        and each rank owns exactly its label's vertices (so the owned
        sets partition them)."""
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
            local_vertices = np.concatenate([rd.owned, rd.ghosts])
            assert np.array_equal(local_vertices[rd.local_edges],
                                  edges[rd.edge_ids])
            assert np.array_equal(rd.ghost_owner, labels[rd.ghosts])
            assert np.array_equal(rd.owned, np.flatnonzero(labels == rd.rank))
        if labelling == "empty-rank":
            assert layout.ranks[2].n_owned == layout.ranks[2].ghosts.size == 0

    @pytest.mark.parametrize("p", [1, 2, 8, 64])
    @pytest.mark.parametrize("labelling",
                             ["kway", "pmetis", "empty-rank", "skewed"])
    def test_one_pass_equals_the_rank_loop(self, setup, labelling, p):
        """The one-pass build, the plan read from its flat arrays and
        the key-map gather give every array the per-rank loop gives,
        value and dtype."""
        prob, _, _, q = setup
        labels = _labelling(prob.mesh.vertex_graph(), labelling, p)
        jac = prob.disc.assemble_jacobian(q)
        ranks, plan, gather = _layout_loop(prob.mesh.edges, labels, jac)
        layout = SPMDLayout.build(prob.mesh.edges, labels)

        def same(got, want):
            return got.dtype == want.dtype and np.array_equal(got, want)

        assert layout.nranks == len(ranks)
        for rd, want in zip(layout.ranks, ranks):
            for name, arr in want.items():
                assert same(getattr(rd, name), arr), (rd.rank, name)
        for name, arr in plan.items():
            got = getattr(layout.plan, name)
            assert (got == arr if name == "pairs" else same(got, arr)), name
        assert all(same(g, w) for g, w in zip(layout.plan.gather(jac),
                                              gather))


class TestDistributedKernels:
    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    @pytest.mark.parametrize("flow", ["incompressible", "rusanov", "roe"])
    def test_residual_exact(self, setup, monkeypatch, flow, engine):
        """Every rank runs the discretisation's own first-order residual,
        so the distributed residual is the global one bit for bit, for
        every interface flux (Roe included) and on both kernel tiers."""
        prob, _, layout, q = (setup if flow == "incompressible"
                              else _compressible(flow))
        monkeypatch.setattr(prob.disc, "engine", engine)
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
        oracle = arc_pass(prob.mesh.vertex_graph(), labels)
        rec = TraceRecorder()
        distributed_residual(prob.disc, layout, q, recorder=rec)
        # One message per (rank, neighbour) pair per refresh.
        assert rec.counter("messages") == int(oracle["neighbors"].sum())

    def test_bytes_match_plan(self, setup):
        prob, labels, layout, q = setup
        oracle = arc_pass(prob.mesh.vertex_graph(), labels)
        rec = TraceRecorder()
        distributed_residual(prob.disc, layout, q, recorder=rec)
        assert rec.counter("bytes") == oracle["ghosts"].sum() * 4 * 8

    def test_one_span_per_receiving_rank(self, setup):
        prob, _, layout, q = setup
        rec = TraceRecorder()
        distributed_residual(prob.disc, layout, q, recorder=rec)
        # One span per receiving rank per refresh (messages are finer:
        # one per (receiver, owner) pair).
        with_ghosts = sum(1 for rd in layout.ranks if rd.ghosts.size)
        assert rec.phase_calls("ghost_exchange") == with_ghosts

    def test_stale_layout_raises(self, setup):
        """A ghost attributed to a rank that does not own it must be a
        hard error, not a silently-wrong gather.  The check runs when
        the scatter plan is built, so corrupt a fresh layout before any
        plan exists."""
        prob, labels, _, q = setup
        bad = SPMDLayout.build(prob.mesh.edges, labels)
        rd = bad.ranks[0]
        nranks = len(bad.ranks)
        rd.ghost_owner[0] = (rd.ghost_owner[0] + 1) % nranks
        with pytest.raises(ValueError, match="stale SPMD layout"):
            distributed_residual(prob.disc, bad, q)

    def test_exchange_overwrites_stale_ghosts(self, setup):
        prob, _, layout, q = setup
        plan = layout.plan
        buf = np.full((plan.total_rows, 4), np.nan)
        qr = q.reshape(-1, 4)
        for rd in layout.ranks:
            plan.local(buf, rd.rank)[: rd.n_owned] = qr[rd.owned]
        GhostExchange(layout, 4).refresh(buf)
        assert not np.isnan(buf).any()
        for rd in layout.ranks:
            lq = plan.local(buf, rd.rank)
            assert np.array_equal(lq[rd.n_owned:], qr[rd.ghosts])


class TestGeometryNotCached:
    def test_one_layout_serves_a_mesh_with_other_normals(self, setup):
        """The service hands one layout to every mesh of a topology (A
        and A'): a mesh whose coordinates moved *before* its
        discretisation was built has other dual normals and boundary
        kinds, and the distributed residual must follow them through
        the very layout, and plan, that served A."""
        prob, labels, _, q = setup
        layout = SPMDLayout.build(prob.mesh.edges, labels)
        r_a = distributed_residual(prob.disc, layout, q)    # builds the plan
        assert layout._plan is not None
        rng = np.random.default_rng(7)
        mesh = dataclasses.replace(
            prob.mesh, coords=prob.mesh.coords
            + 1e-3 * rng.standard_normal(prob.mesh.coords.shape))
        dual = compute_dual_metrics(mesh)
        bc = classify_box_boundary(mesh, dual,
                                   wall_region=((0.2, 0.8), (0.2, 0.8)))
        disc = type(prob.disc)(mesh, bc, dual, farfield=prob.initial,
                               second_order=False)
        assert not np.array_equal(dual.edge_normals,
                                  prob.disc.dual.edge_normals)
        r = distributed_residual(disc, layout, q)
        assert np.array_equal(r, disc.residual(q, second_order=False))
        assert not np.array_equal(r, r_a)
        # ... and back to A: nothing of A' stuck to the layout either.
        assert np.array_equal(distributed_residual(prob.disc, layout, q),
                              r_a)


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
        traced = distributed_residual(prob.disc, layout, q, recorder=rec)
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
    """The plan keeps one SpMV gather structure, for the last matrix
    pattern: an identity hit, then an ``np.array_equal`` one."""

    def test_cache_hit_on_identity(self, setup):
        prob, _, layout, q = setup
        plan = layout.plan
        plan._gather = None
        jac = prob.disc.shifted_jacobian(q, 10.0)
        assert plan.gather(jac) is plan.gather(jac)

    def test_cache_hit_on_equal_pattern(self, setup):
        """A numerically-different matrix with the same sparsity reuses
        the structure, which is then kept for the new pattern arrays."""
        prob, _, layout, q = setup
        plan = layout.plan
        plan._gather = None
        jac1 = prob.disc.shifted_jacobian(q, 10.0)
        jac2 = prob.disc.shifted_jacobian(q + 0.01, 5.0)
        # force distinct pattern objects (the discretization may share
        # them) so the equality fallback, not identity, is what hits
        jac2.indptr = jac2.indptr.copy()
        jac2.indices = jac2.indices.copy()
        assert jac1.indptr is not jac2.indptr
        g = plan.gather(jac1)
        assert plan.gather(jac2) is g
        assert plan._gather[0] is jac2.indptr
        assert plan._gather[1] is jac2.indices

    def test_jittered_mesh_hits(self, setup):
        """The stream's A': the same wing with coordinates moved by 1e-8
        is a new discretisation with new pattern arrays of equal values;
        its Jacobian hits the structure the first mesh's built, and the
        seq matvec through it equals the global SpMV bitwise."""
        prob, _, layout, q = setup
        plan = layout.plan
        plan._gather = None
        g = plan.gather(prob.disc.shifted_jacobian(q, 10.0))
        rng = np.random.default_rng(5)
        mesh = dataclasses.replace(
            prob.mesh, coords=prob.mesh.coords
            + 1e-8 * rng.standard_normal(prob.mesh.coords.shape))
        dual = compute_dual_metrics(mesh)
        disc = type(prob.disc)(mesh, prob.disc.bc, dual,
                               farfield=prob.initial, second_order=False)
        jac = disc.shifted_jacobian(q, 10.0)
        jac.engine = "compiled"
        assert plan.gather(jac) is g
        x = rng.standard_normal(jac.shape[1])
        assert np.array_equal(distributed_matvec(jac, layout, x),
                              jac.matvec(x))

    def test_other_pattern_rebuilds(self, setup):
        prob, _, layout, q = setup
        plan = layout.plan
        jac = prob.disc.shifted_jacobian(q, 10.0)
        g = plan.gather(jac)
        keep = jac.row_of == jac.indices          # the diagonal only
        diag = BSRMatrix(indptr=np.arange(jac.nbrows + 1),
                         indices=jac.indices[keep], data=jac.data[keep],
                         nbcols=jac.nbcols)
        g2 = plan.gather(diag)
        assert g2 is not g and g2.flat.size == diag.nnzb
        for rd in layout.ranks:
            flat, cols, seg = g2.rank(rd.rank)
            assert np.array_equal(seg, np.arange(rd.n_owned))
            assert np.array_equal(cols, seg)

    def test_nbytes_counts_the_structure_and_its_pattern(self, setup):
        prob, _, layout, q = setup
        plan = layout.plan
        plan._gather = None
        before = plan.nbytes
        jac = prob.disc.shifted_jacobian(q, 10.0)
        g = plan.gather(jac)
        assert plan.nbytes - before == (jac.indptr.nbytes + jac.indices.nbytes
                                        + sum(a.nbytes for a in g))

    def test_cached_matvec_matches_uncached(self, setup):
        prob, _, layout, q = setup
        layout.plan._gather = None
        jac = prob.disc.shifted_jacobian(q, 10.0)
        y1 = distributed_matvec(jac, layout, q)     # cold: builds it
        y2 = distributed_matvec(jac, layout, q)     # warm: identity hit
        assert np.array_equal(y1, y2)


class TestSeqMatvecTelemetry:
    """The compiled seq matvec is one C call over every rank; the
    recorder books from its times what the rank loop books (the numpy
    tier, which CI runs this class on too, is that loop)."""

    @pytest.fixture
    def case(self, setup):
        prob, _, layout, q = setup
        jac = prob.disc.shifted_jacobian(q, 10.0)
        jac.engine = "compiled"
        x = np.random.default_rng(23).standard_normal(jac.shape[1])
        return jac, layout, x

    def test_one_span_per_rank_and_per_receiver(self, case):
        jac, layout, x = case
        rec = TraceRecorder()
        distributed_matvec(jac, layout, x, recorder=rec)
        plan = layout.plan
        phases = rec.to_dict()["phases"]
        for r in range(layout.nranks):
            assert phases["matvec"][str(r)]["count"] == 1
            assert phases["ghost_exchange"].get(
                str(r), {"count": 0})["count"] == (r in plan.receivers)
        assert rec.phase_seconds("matvec") > 0
        assert rec.wait_seconds("matvec") >= 0
        assert rec.wait_seconds("ghost_exchange") >= 0

    def test_counters_equal_the_plan(self, case):
        jac, layout, x = case
        plan = layout.plan
        rec = TraceRecorder()
        distributed_matvec(jac, layout, x, recorder=rec)
        assert rec.counter("messages") == plan.pair_count
        assert rec.counter("bytes") == plan.ghost_rows * jac.bs * 8
        messages = rec.to_dict()["counters"]["messages"]
        for r in plan.receivers:
            assert messages[str(r)] == plan.pairs[r]

    def test_self_times_sum_to_the_inclusive(self, case):
        jac, layout, x = case
        rec = TraceRecorder()
        with rec.span("krylov") as sp:
            distributed_matvec(jac, layout, x, recorder=rec)
        total = sum(cell["self_s"]
                    for ranks in rec.to_dict()["phases"].values()
                    for cell in ranks.values())
        assert total == pytest.approx(sp.elapsed, rel=1e-9)
        assert rec.self_seconds("krylov") < sp.elapsed

    def test_fp32_in_fp32_out_with_the_widened_bits(self, case):
        jac, layout, x = case
        x32 = x.astype(np.float32)
        y = distributed_matvec(jac, layout, x32)
        assert y.dtype == np.float32
        assert np.array_equal(
            y, jac.matvec(x32.astype(np.float64)).astype(np.float32))


class TestModelPricesExecution:
    """One halo per partition: the scatter the performance model prices
    is the one the seq executor runs and books."""

    @pytest.mark.parametrize("nparts", [2, 4, 6, 8])
    def test_model_prices_what_the_executors_move(self, setup, nparts):
        prob, _, _, q = setup
        labels = kway_partition(prob.mesh.vertex_graph(), nparts, seed=0)
        layout = SPMDLayout.build(prob.mesh.edges, labels)
        ncomp = prob.disc.ncomp
        tl = simulate_solve(build_rank_work(layout, ncomp), layout.plan,
                            ASCI_RED_PPRO,
                            network_from_machine(ASCI_RED_PPRO),
                            linear_its_per_step=[1])
        messages, received, _ = scatter_counts(layout.plan)
        jac = prob.disc.shifted_jacobian(q, 10.0)
        jac.engine = "compiled"   # the C seq call, or numpy when disabled
        x = np.random.default_rng(nparts).standard_normal(jac.shape[1])
        for run in (lambda rec: distributed_matvec(jac, layout, x,
                                                   recorder=rec),
                    lambda rec: distributed_residual(prob.disc, layout, q,
                                                     recorder=rec)):
            rec = TraceRecorder()
            run(rec)
            assert rec.counter("bytes") == tl.payload_per_linear_it
            counters = rec.to_dict()["counters"]
            for r in range(nparts):
                assert counters["messages"].get(str(r), 0) == messages[r]
                assert counters["bytes"].get(str(r), 0) \
                    == received[r] * ncomp * 8

    @pytest.mark.parametrize("labelling", ["kway", "pmetis", "skewed"])
    def test_layout_counts_match_the_arc_pass(self, setup, labelling):
        prob, _, _, _ = setup
        graph = prob.mesh.vertex_graph()
        if labelling == "pmetis":
            labels = pmetis_partition(graph, 8, seed=0)
        else:
            labels = kway_partition(graph, 8, seed=0)
            if labelling == "skewed":
                labels = _skew_partition(labels, 8, 0.45)
        oracle = arc_pass(graph, labels)
        layout = SPMDLayout.build(prob.mesh.edges, labels)
        messages, received, sent = scatter_counts(layout.plan)
        works = build_rank_work(layout, prob.disc.ncomp)
        assert np.array_equal(received, oracle["ghosts"])
        assert np.array_equal(sent, oracle["sends"])
        assert np.array_equal(messages, oracle["neighbors"])
        assert np.array_equal([w.interior_edges for w in works],
                              oracle["interior"])
        assert np.array_equal([w.halo_edges for w in works],
                              oracle["halo"])
        assert sum(w.halo_edges for w in works) // 2 == oracle["cut_edges"]
