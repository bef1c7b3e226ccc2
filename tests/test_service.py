"""SolverService: warm caches, admission control, crash quarantine.

The service's correctness contract is inherited — every solve runs
the oracle-disciplined NKSSolver — so these tests focus on the
service semantics: warm-seeded solves are bitwise-identical to cold
ones, cache namespaces hit per structure, the bounded queue rejects,
deadlines expire requests, batching groups compatible requests, and
a crashed worker quarantines one request without killing the service.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.config import PreconditionerConfig, SolverConfig
from repro.euler import wing_problem
from repro.parallel.procpool import ProcPoolError
from repro.service import (ServiceCache, SolveRequest, SolverService,
                           config_key, mesh_hash, pattern_hash,
                           topology_hash)
from repro.service.warm import harvest_context, seed_solver


_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

# Wing A, A' (coordinates + 1e-8: same topology hash, so the cached
# layout is shared; another mesh hash, so another pool key), A again.
_PERTURBED_PROC_STREAM = r"""
import json, multiprocessing, os
import numpy as np
from repro.core.config import PreconditionerConfig, SolverConfig
from repro.euler import wing_problem
from repro.service import ServiceCache, SolveRequest, SolverService

before = set(os.listdir("/dev/shm"))
cfg = SolverConfig(executor="proc", nworkers=2, max_steps=4,
                   precond=PreconditionerConfig(nparts=4))
states = []
with SolverService(workers=1, cache=ServiceCache(max_entries=2)) as svc:
    for shift in (0.0, 1e-8, 0.0):
        prob = wing_problem(7, 5, 4)
        prob.mesh.coords[:] += shift
        ticket = svc.submit(SolveRequest(prob.disc, prob.initial.flat(), cfg))
        states.append(ticket.result(timeout=600).final_state)
        pools = {id(lay.pool) for lay in svc._warm_pools.values()}
        assert len(pools) == len(svc._warm_pools) == 1, svc._warm_pools
    stats = svc.snapshot()["service"]
print(json.dumps({
    "bitwise": bool(np.array_equal(states[0], states[2])),
    "leaked": sorted(set(os.listdir("/dev/shm")) - before),
    "children": [p.name for p in multiprocessing.active_children()],
    "stats": stats}))
"""


def small_cfg(**kw):
    kw.setdefault("max_steps", 4)
    kw.setdefault("executor", "seq")
    kw.setdefault("precond", PreconditionerConfig(nparts=4))
    return SolverConfig(**kw)


def make_prob(jitter=0.0, size=(7, 5, 4)):
    prob = wing_problem(*size)
    if jitter:
        rng = np.random.default_rng(42)
        prob.mesh.coords[:] += jitter * rng.standard_normal(
            prob.mesh.coords.shape)
    return prob


class TestHashing:
    def test_mesh_hash_sees_coords(self):
        a, b = make_prob(), make_prob(jitter=1e-6)
        assert topology_hash(a.mesh) == topology_hash(b.mesh)
        assert mesh_hash(a.mesh) != mesh_hash(b.mesh)

    def test_topology_hash_sees_edges(self):
        a, b = make_prob(), make_prob(size=(8, 5, 4))
        assert topology_hash(a.mesh) != topology_hash(b.mesh)

    def test_config_key_stable_and_discriminating(self):
        assert config_key(small_cfg()) == config_key(small_cfg())
        assert config_key(small_cfg()) != config_key(
            small_cfg(max_steps=5))

    def test_pattern_hash(self):
        prob = make_prob()
        q = prob.initial.flat()
        jac = prob.disc.shifted_jacobian(q, 10.0)
        h = pattern_hash(jac.indptr, jac.indices)
        assert h == pattern_hash(jac.indptr.copy(), jac.indices.copy())


class TestServiceCache:
    def test_hit_miss_byte_accounting(self):
        cache = ServiceCache()
        assert cache.get("partition", "k") is None
        cache.put("partition", "k", np.arange(8), nbytes=64)
        assert cache.get("partition", "k") is not None
        st = cache.stats()["partition"]
        assert (st.hits, st.misses, st.puts) == (1, 1, 1)
        assert st.bytes_stored == 64 and st.bytes_served == 64
        assert st.hit_ratio == 0.5

    def test_lru_eviction(self):
        cache = ServiceCache(max_entries=2)
        for i in range(3):
            cache.put("gather", f"k{i}", i, nbytes=10)
        st = cache.stats()["gather"]
        assert st.evictions == 1 and st.bytes_stored == 20
        assert cache.get("gather", "k0") is None       # evicted
        assert cache.get("gather", "k2") == 2

    def test_unknown_namespace_rejected(self):
        with pytest.raises(KeyError, match="namespace"):
            ServiceCache().get("jacobians", "k")


class TestWarmSeeding:
    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    def test_entry_bytes_count_schedules_where_they_exist(self, engine):
        """A numpy-tier solve leaves an elimination schedule on every
        pattern and the ``ilu_symbolic`` entry counts it; a compiled
        solve with a backend builds none, so the entry is the patterns'
        and the subdomains' index arrays alone — the slot maps into the
        Jacobian among them."""
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
                   + sd.owned_rows.nbytes + sd.sub_indptr.nbytes
                   + sd.sub_indices.nbytes + sd.slots.nbytes
                   for sd in subdomains)
        index_bytes = maps + sum(p.l_indptr.nbytes + p.l_indices.nbytes
                                 + p.u_indptr.nbytes + p.u_indices.nbytes
                                 for p in patterns)
        stored = cache.stats()["ilu_symbolic"].bytes_stored
        if engine == "compiled" and kernels.backend_for(engine) is not None:
            assert not any(hasattr(p, "_schedule") for p in patterns)
            assert stored == index_bytes
        else:
            assert all(p._schedule is not None for p in patterns)
            assert stored > index_bytes

    def test_cold_then_warm_bitwise_identical(self):
        cache = ServiceCache()
        cfg = small_cfg()
        p1 = make_prob()
        ctx1 = seed_solver(cache, p1.disc, cfg)
        assert not any(ctx1.seeded.values())
        rep1 = ctx1.solver.solve(p1.initial.flat())
        harvest_context(cache, ctx1)
        assert set(ctx1.seeded) == set(cache.stats()) == {
            "partition", "gather", "ilu_symbolic"}

        p2 = make_prob()
        ctx2 = seed_solver(cache, p2.disc, cfg)
        assert all(ctx2.seeded.values())
        rep2 = ctx2.solver.solve(p2.initial.flat())
        assert np.array_equal(rep1.final_state, rep2.final_state)

    def test_jittered_mesh_hits_structural_namespaces(self):
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
        assert all(ctx2.seeded.values())
        assert ctx2.mesh_key != ctx1.mesh_key
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
        assert not any(ctx2.seeded.values())


class TestServiceLifecycle:
    def test_repeat_mesh_warm_hits_and_bitwise(self):
        with SolverService(workers=1) as svc:
            cfg = small_cfg()
            p = make_prob()
            t1 = svc.submit(SolveRequest(p.disc, p.initial.flat(), cfg))
            rep1 = t1.result(timeout=300)
            assert t1.status == "completed"
            assert not any(t1.seeded.values())
            p2 = make_prob()
            t2 = svc.submit(SolveRequest(p2.disc, p2.initial.flat(), cfg))
            rep2 = t2.result(timeout=300)
            assert all(t2.seeded.values())
            assert np.array_equal(rep1.final_state, rep2.final_state)
            for ns, st in svc.cache.stats().items():
                assert st.hits > 0, f"no warm hits in {ns}"

    def test_request_trace_has_service_spans(self):
        with SolverService(workers=1) as svc:
            p = make_prob()
            t = svc.submit(SolveRequest(p.disc, p.initial.flat(),
                                        small_cfg()))
            t.result(timeout=300)
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
            assert t3.done and t3.report is None
        finally:
            klock.release()
        assert t1.result(timeout=300) is not None
        assert t2.result(timeout=300) is not None
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
        t1.result(timeout=300)
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
            assert t.result(timeout=300) is not None
        # head ran alone (already dispatched); the two queued
        # same-key requests were drained as one batch
        assert svc.stats.batches >= 1
        assert svc.stats.batched_requests >= 1
        assert any(t.batched for t in followers)
        svc.close()

    def test_close_unblocks_workers(self):
        svc = SolverService(workers=2)
        svc.close()
        for t in svc._threads:
            assert not t.is_alive()


class TestProcServiceAndQuarantine:
    @pytest.fixture()
    def proc_cfg(self):
        return small_cfg(executor="proc", nworkers=2)

    def test_proc_requests_reuse_pool_and_match_seq(self, proc_cfg):
        with SolverService(workers=1) as svc:
            p = make_prob()
            t1 = svc.submit(SolveRequest(p.disc, p.initial.flat(),
                                         proc_cfg, tag="cold"))
            rep1 = t1.result(timeout=600)
            p2 = make_prob()
            t2 = svc.submit(SolveRequest(p2.disc, p2.initial.flat(),
                                         proc_cfg, tag="warm"))
            rep2 = t2.result(timeout=600)
            assert svc.stats.pools_created == 1    # second reused it
            assert np.array_equal(rep1.final_state, rep2.final_state)
        # seq oracle at the service level
        with SolverService(workers=1) as svc:
            p3 = make_prob()
            t3 = svc.submit(SolveRequest(p3.disc, p3.initial.flat(),
                                         small_cfg()))
            rep3 = t3.result(timeout=600)
        assert np.array_equal(rep1.final_state, rep3.final_state)

    def test_crashed_worker_quarantines_request_not_service(
            self, proc_cfg):
        with SolverService(workers=1) as svc:
            p = make_prob()
            t1 = svc.submit(SolveRequest(p.disc, p.initial.flat(),
                                         proc_cfg))
            t1.result(timeout=600)
            # murder a pool worker between requests
            [layout] = svc._warm_pools.values()
            victim = layout.pool._procs[0]
            victim.terminate()
            victim.join()
            t2 = svc.submit(SolveRequest(make_prob().disc,
                                         p.initial.flat(), proc_cfg))
            with pytest.raises(ProcPoolError):
                t2.result(timeout=600)
            assert t2.status == "failed"
            assert svc.stats.failed == 1
            assert svc.stats.pools_discarded >= 1
            # the service recovers: a fresh pool serves the next request
            t3 = svc.submit(SolveRequest(make_prob().disc,
                                         p.initial.flat(), proc_cfg))
            assert t3.result(timeout=600) is not None
            assert t3.status == "completed"

    def test_perturbed_mesh_closes_the_pool_it_replaces(self):
        """A' lands on A's cached layout (topology-keyed) with A's pool
        still attached; the pool built for A' must close that one and
        the service must forget the entry that named it.  At the parent
        of this fix the first pool was orphaned: exit 139 and two
        ``/dev/shm/psm_*`` segments left behind."""
        proc = subprocess.run(
            [sys.executable, "-c", _PERTURBED_PROC_STREAM],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": _SRC})
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["bitwise"]
        assert out["leaked"] == []
        assert out["children"] == []
        assert out["stats"]["completed"] == 3
        assert (out["stats"]["pools_created"],
                out["stats"]["pools_discarded"]) == (3, 2)
