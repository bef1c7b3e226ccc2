"""SolverService: warm caches, admission control, failed requests.

The service's correctness contract is inherited — every solve runs
the oracle-disciplined NKSSolver — so these tests focus on the
service semantics: warm-seeded solves are bitwise-identical to cold
ones (also when requests of different keys run at the same time), one
cache entry per compatibility key, the bounded queue rejects,
deadlines expire requests, batching groups compatible requests, and
a solve that raises fails its own request without stopping the
service.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.config import PreconditionerConfig, SolverConfig
from repro.core.driver import NKSSolver
from repro.euler import wing_problem
from repro.service import (ServiceCache, SolveRequest, SolverService,
                           harvest_context, seed_solver)
from repro.service.warm import _layout_nbytes, _pattern_nbytes, topology_hash


def small_cfg(**kw):
    kw.setdefault("max_steps", 4)
    kw.setdefault("executor", "seq")
    kw.setdefault("precond", PreconditionerConfig(nparts=4))
    return SolverConfig(**kw)


def _result(ticket):
    """The ticket's report, or what its failed solve raised; a request
    not done in 300 s fails the test instead of hanging it."""
    assert ticket.wait(300)
    if ticket.error is not None:
        raise ticket.error
    return ticket.report


def make_prob(jitter=0.0, size=(7, 5, 4)):
    prob = wing_problem(*size)
    if jitter:
        rng = np.random.default_rng(42)
        prob.mesh.coords[:] += jitter * rng.standard_normal(
            prob.mesh.coords.shape)
    return prob


class TestHashing:
    def test_topology_hash_ignores_coords(self):
        a, b = make_prob(), make_prob(jitter=1e-6)
        assert topology_hash(a.mesh) == topology_hash(b.mesh)

    def test_topology_hash_sees_edges(self):
        a, b = make_prob(), make_prob(size=(8, 5, 4))
        assert topology_hash(a.mesh) != topology_hash(b.mesh)


class TestServiceCache:
    def test_hit_miss_byte_accounting(self):
        cache = ServiceCache()
        assert cache.get("k") is None
        cache.put("k", np.arange(8), nbytes=64)
        assert cache.get("k") is not None
        st = cache.stats()
        assert (st.hits, st.misses, st.puts) == (1, 1, 1)
        assert st.bytes_stored == 64 and st.bytes_served == 64
        assert st.hit_ratio == 0.5

    def test_lru_eviction(self):
        cache = ServiceCache(max_entries=2)
        for i in range(3):
            cache.put(f"k{i}", i, nbytes=10)
        st = cache.stats()
        assert st.evictions == 1 and st.bytes_stored == 20
        assert cache.get("k0") is None       # evicted
        assert cache.get("k2") == 2

    def test_negative_max_entries_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ServiceCache(max_entries=-1)

    def test_zero_max_entries_caches_nothing(self):
        """``max_entries=0`` is valid: every request completes cold and
        its entry is evicted at harvest."""
        with SolverService(workers=1,
                           cache=ServiceCache(max_entries=0)) as svc:
            p = make_prob()
            tickets = [svc.submit(SolveRequest(p.disc, p.initial.flat(),
                                               small_cfg(max_steps=1)))
                       for _ in range(2)]
            for t in tickets:
                assert _result(t) is not None
                assert t.status == "completed" and not t.seeded
            st = svc.cache.stats()
            assert (st.evictions, st.bytes_stored) == (2, 0)


class TestWarmSeeding:
    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_entry_bytes_count_schedules_where_they_exist(self, engine):
        """A numpy-tier solve leaves an elimination schedule on every
        pattern and the warm entry counts it; a compiled
        solve with a backend builds none, so the entry is the patterns'
        and the subdomains' index arrays alone — the slot maps into the
        Jacobian and the flat element indices of the apply among
        them."""
        from repro import kernels

        cache = ServiceCache()
        prob = make_prob()
        ctx = seed_solver(cache, prob.disc, small_cfg(engine=engine))
        ctx.solver.solve(prob.initial.flat())
        harvest_context(cache, ctx)
        subdomains = ctx.solver._pc.subdomains
        patterns = [sd.factor.pattern for sd in subdomains]
        assert all(sd.slots is not None for sd in subdomains)
        maps = sum(sd.rows.nbytes + sd.owned_local.nbytes
                   + sd.sub_indptr.nbytes
                   + sd.sub_indices.nbytes + sd.slots.nbytes
                   + sd.flat.nbytes + sd.owned_flat.nbytes
                   + sd.owned_local_flat.nbytes
                   for sd in subdomains)
        index_bytes = maps + sum(p.l_indptr.nbytes + p.l_indices.nbytes
                                 + p.u_indptr.nbytes + p.u_indices.nbytes
                                 for p in patterns)
        stored = (cache.stats().bytes_stored - ctx.solver._labels.nbytes
                  - _layout_nbytes(ctx.solver._layout))
        if engine == "compiled" and kernels.backend_for(engine) is not None:
            assert not any(hasattr(p, "_schedule") for p in patterns)
            assert stored == index_bytes
        else:
            assert all(p._schedule is not None for p in patterns)
            assert stored > index_bytes

    def test_gather_entry_counts_the_scatter_plan(self):
        """The entry holds the whole layout, so its bytes are the rank
        worlds and every index array of the scatter plan: the boundary
        rows (a first-order solve runs the distributed residual) and
        the SpMV gather structure with the pattern it is kept for."""
        cache = ServiceCache()
        prob = make_prob()
        prob.disc.second_order = False
        ctx = seed_solver(cache, prob.disc, small_cfg())
        ctx.solver.solve(prob.initial.flat())
        harvest_context(cache, ctx)
        layout = ctx.solver._layout
        worlds = sum(rd.owned.nbytes + rd.ghosts.nbytes + rd.edge_ids.nbytes
                     + rd.local_edges.nbytes + rd.ghost_owner.nbytes
                     for rd in layout.ranks)
        plan = layout.plan
        indptr, indices, gather = plan._gather
        structs = (indptr.nbytes + indices.nbytes
                   + sum(a.nbytes for a in gather))
        verts, kinds, rows = plan._boundary
        plan_bytes = structs + sum(a.nbytes for a in (
            plan.row_off, plan.owner, plan.home, plan.ghost_src,
            plan.ghost_off, *plan.e0, *plan.e1, verts, kinds,
            *(a for rank in rows for a in rank)))
        assert structs > 0 and plan_bytes > 0
        assert _layout_nbytes(layout) == worlds + plan_bytes
        assert cache.stats().bytes_stored == (
            ctx.solver._labels.nbytes + _layout_nbytes(layout)
            + _pattern_nbytes(ctx.solver._pc))

    def test_cold_then_warm_bitwise_identical(self):
        cache = ServiceCache()
        cfg = small_cfg()
        p1 = make_prob()
        ctx1 = seed_solver(cache, p1.disc, cfg)
        assert not ctx1.seeded
        rep1 = ctx1.solver.solve(p1.initial.flat())
        harvest_context(cache, ctx1)
        assert list(cache.stats_dict()) == ["warm"]

        p2 = make_prob()
        ctx2 = seed_solver(cache, p2.disc, cfg)
        assert ctx2.seeded
        assert ctx2.solver._pc is ctx1.solver._pc
        rep2 = ctx2.solver.solve(p2.initial.flat())
        assert np.array_equal(rep1.final_state, rep2.final_state)

    def test_jittered_mesh_hits_the_entry(self):
        """Same topology, perturbed coordinates: partitions, gather
        structs, and the symbolic preconditioner all reuse."""
        cache = ServiceCache()
        cfg = small_cfg()
        p1 = make_prob()
        ctx1 = seed_solver(cache, p1.disc, cfg)
        ctx1.solver.solve(p1.initial.flat())
        harvest_context(cache, ctx1)

        p2 = make_prob(jitter=1e-8)
        ctx2 = seed_solver(cache, p2.disc, cfg)
        assert ctx2.seeded
        rep2 = ctx2.solver.solve(p2.initial.flat())
        assert rep2.num_steps > 0

    def test_incompatible_config_misses(self):
        cache = ServiceCache()
        p1 = make_prob()
        ctx1 = seed_solver(cache, p1.disc, small_cfg())
        ctx1.solver.solve(p1.initial.flat())
        harvest_context(cache, ctx1)
        ctx2 = seed_solver(
            cache, make_prob().disc,
            small_cfg(precond=PreconditionerConfig(nparts=3)))
        assert not ctx2.seeded

    def test_executors_never_share_a_structure(self):
        """Two configs that differ only in ``executor`` have different
        compatibility keys, so the service may run them at the same
        time: they must not be seeded with the same mutable
        preconditioner or layout, even once both are cached."""
        cfgs = [small_cfg(executor=e) for e in ("seq", "local")]
        p = make_prob()
        with SolverService(workers=1) as svc:
            keys = {svc.compat_key(SolveRequest(p.disc, p.initial.flat(),
                                                cfg)) for cfg in cfgs}
        assert len(keys) == 2
        cache = ServiceCache()
        for _ in range(2):
            ctxs = [seed_solver(cache, make_prob().disc, cfg)
                    for cfg in cfgs]
            for ctx in ctxs:
                ctx.solver.solve(p.initial.flat())
                harvest_context(cache, ctx)
        seq, local = ctxs
        assert seq.seeded and local.seeded
        assert seq.solver._pc is not local.solver._pc
        assert seq.solver._layout is not None
        assert local.solver._layout is None


class TestConcurrentKeys:
    def test_concurrent_executors_match_cold_solves(self):
        """Requests that differ only in ``executor`` have different keys,
        so two dispatchers run them at the same time.  Each must solve
        on its own warm structures: every final state is bitwise its
        cold solve's."""
        def prob(alpha):
            return wing_problem(9, 6, 5, alpha_deg=alpha)

        runs = [(alpha, executor) for alpha in (3.0, 5.0)
                for executor in ("local", "seq")]
        with SolverService(workers=2) as svc:
            p = prob(3.0)
            _result(svc.submit(SolveRequest(p.disc, p.initial.flat(),
                                            small_cfg())))
            tickets = []
            for alpha, executor in runs:
                p = prob(alpha)
                tickets.append(svc.submit(SolveRequest(
                    p.disc, p.initial.flat(),
                    small_cfg(executor=executor))))
            warm = [_result(t) for t in tickets]
        for (alpha, executor), rep in zip(runs, warm):
            p = prob(alpha)
            cold = NKSSolver(p.disc, small_cfg(executor=executor)).solve(
                p.initial.flat())
            assert np.array_equal(rep.final_state, cold.final_state), \
                (alpha, executor)


class TestServiceLifecycle:
    def test_repeat_mesh_warm_hits_and_bitwise(self):
        with SolverService(workers=1) as svc:
            cfg = small_cfg()
            p = make_prob()
            t1 = svc.submit(SolveRequest(p.disc, p.initial.flat(), cfg))
            rep1 = _result(t1)
            assert t1.status == "completed"
            assert not t1.seeded
            p2 = make_prob()
            t2 = svc.submit(SolveRequest(p2.disc, p2.initial.flat(), cfg))
            rep2 = _result(t2)
            assert t2.seeded
            assert np.array_equal(rep1.final_state, rep2.final_state)
            assert svc.cache.stats().hits == 1

    def test_request_trace_has_service_spans(self):
        with SolverService(workers=1) as svc:
            p = make_prob()
            t = svc.submit(SolveRequest(p.disc, p.initial.flat(),
                                        small_cfg()))
            _result(t)
            phases = set(t.trace["phases"])
            assert {"service_queue", "service_seed", "service_solve",
                    "service_harvest"} <= phases
            assert "krylov" in phases       # the solver's own spans

    def test_admission_rejects_past_bound(self):
        svc = SolverService(workers=1, max_queue=1)
        # jam the single dispatcher by holding the request's key lock:
        # the first submit dispatches and blocks, the second fills the
        # queue, the third must be rejected at admission
        p = make_prob()
        req = SolveRequest(p.disc, p.initial.flat(), small_cfg())
        klock = svc._key_lock(svc.compat_key(req))
        klock.acquire()
        try:
            t1 = svc.submit(req)           # dispatched, blocks on lock
            time.sleep(0.1)
            t2 = svc.submit(req)           # queued (1/1)
            t3 = svc.submit(req)           # rejected
            assert t3.status == "rejected"
            assert t3.wait(0)            # terminal at once ...
            assert t3.report is None     # ... with no report
            assert t3.error is None
        finally:
            klock.release()
        assert _result(t1) is not None
        assert _result(t2) is not None
        assert svc.stats.rejected == 1
        svc.close()

    def test_queued_deadline_expires_without_running(self):
        svc = SolverService(workers=1)
        p = make_prob()
        req = SolveRequest(p.disc, p.initial.flat(), small_cfg())
        key = svc.compat_key(req)
        klock = svc._key_lock(key)
        klock.acquire()
        try:
            t1 = svc.submit(req)               # holds the dispatcher
            time.sleep(0.05)
            late = SolveRequest(p.disc, p.initial.flat(), small_cfg(),
                                deadline_s=0.01)
            t2 = svc.submit(late)
            time.sleep(0.1)                    # let the deadline pass
        finally:
            klock.release()
        _result(t1)
        t2.wait(timeout=300)
        assert t2.status == "timeout"
        assert t2.report is None
        svc.close()

    def test_batching_groups_compatible_requests(self):
        svc = SolverService(workers=1)
        cfg = small_cfg()
        p = make_prob()
        req = SolveRequest(p.disc, p.initial.flat(), cfg)
        key = svc.compat_key(req)
        klock = svc._key_lock(key)
        klock.acquire()
        try:
            head = svc.submit(req)
            time.sleep(0.1)                # dispatcher blocks on klock
            followers = [svc.submit(SolveRequest(
                make_prob().disc, p.initial.flat(), cfg))
                for _ in range(2)]
        finally:
            klock.release()
        for t in [head, *followers]:
            assert _result(t) is not None
        # head ran alone (already dispatched); the two queued
        # same-key requests were drained as one batch
        assert svc.stats.batches >= 1
        assert svc.stats.batched_requests >= 1
        assert any(t.batched for t in followers)
        svc.close()

    def test_close_drains_queued_requests(self):
        svc = SolverService(workers=1)
        p = make_prob()
        req = SolveRequest(p.disc, p.initial.flat(), small_cfg())
        klock = svc._key_lock(svc.compat_key(req))
        klock.acquire()
        try:
            head = svc.submit(req)             # holds the dispatcher
            time.sleep(0.1)
            queued = svc.submit(req)
            closer = threading.Thread(target=svc.close)
            closer.start()
            time.sleep(0.05)
            assert svc.submit(req).status == "rejected"
        finally:
            klock.release()
        closer.join(timeout=300)
        assert not closer.is_alive()
        # close() ran the queued request instead of expiring it
        assert head.status == queued.status == "completed"
        assert queued.report is not None
        assert svc.stats.timeouts == 0

    def test_close_unblocks_workers(self):
        svc = SolverService(workers=2)
        svc.close()
        for t in svc._threads:
            assert not t.is_alive()


class TestFailedRequest:
    def test_raising_solve_fails_its_request_and_service_serves_on(self):
        """A non-finite initial state makes the solve raise: the ticket
        ends ``failed`` with the exception, and the next request on the
        same dispatcher completes."""
        with SolverService(workers=1) as svc:
            p = make_prob()
            bad = np.full_like(p.initial.flat(), np.nan)
            t1 = svc.submit(SolveRequest(p.disc, bad, small_cfg()))
            with pytest.raises(ValueError, match="bad residual norm"):
                _result(t1)
            assert t1.status == "failed"
            assert isinstance(t1.error, ValueError)
            assert svc.stats.failed == 1
            t2 = svc.submit(SolveRequest(p.disc, p.initial.flat(),
                                         small_cfg()))
            assert _result(t2) is not None
            assert t2.status == "completed"
            assert svc.stats.completed == 1
