"""The long-running solver service: admission, batching, warm workers.

Request lifecycle::

    submit(SolveRequest) ──► bounded queue ──► dispatcher thread
        │ (reject when full)      │ (drop when deadline passed)
        ▼                         ▼
    SolveTicket ◄── harvest ◄── solve ◄── seed (warm-cache probes)

* **Admission control** — the queue is bounded (``max_queue``); a
  submit against a full queue is rejected immediately (the ticket
  comes back ``rejected``, nothing enqueues).  Each request carries an
  optional deadline; a request whose deadline passes while queued is
  dropped as ``timeout`` without running, and a running solve checks
  the deadline every pseudo-timestep (the SNES-monitor idiom) and
  stops as ``timeout`` mid-solve.
* **Batching** — requests are grouped by *compatibility key* (mesh
  topology + the config knobs that shape reusable structures).  When a
  dispatcher picks a request it also drains every queued request with
  the same key (up to ``max_batch``) and runs them back-to-back under
  one per-key lock, so the warm structures are seeded once and the
  followers pay only the numeric work.  The per-key lock is also the
  exclusive-use contract of the mutable warm structures.
* **Warm pools** — with ``executor="proc"`` the service creates the
  worker pool itself, attached to the request's layout, and keeps it
  across requests keyed by the *full* mesh hash (forked workers hold
  the geometry); the driver reuses an attached live pool and never
  closes pools it did not create.  A crashed worker surfaces as
  :class:`~repro.parallel.procpool.ProcPoolError`: the request is
  quarantined as ``failed``, the broken pool and its warm context are
  discarded, and the service keeps serving.
* **Telemetry** — every request gets its own
  :class:`~repro.telemetry.TraceRecorder`; the service books
  ``service_queue`` / ``service_seed`` / ``service_solve`` /
  ``service_harvest`` envelope spans around the solver's own phase
  spans, and the ticket carries the trace dict.
"""

from __future__ import annotations

# lint: worker (dispatcher threads run the request loop)

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SolverConfig
from repro.parallel.procpool import ProcPoolError
from repro.service.cache import ServiceCache
from repro.service.hashing import _digest_parts, mesh_hash
from repro.service.warm import harvest_context, seed_solver, structure_keys
from repro.telemetry.recorder import TraceRecorder

__all__ = ["SolveRequest", "SolveTicket", "ServiceStats", "SolverService"]


@dataclass
class SolveRequest:
    """One solve: a discretised problem + initial state + config.

    ``deadline_s`` is relative to submission; ``None`` means no
    deadline.  ``tag`` is a caller label carried through to the ticket
    (the benches use it to mark repeat/jittered/cold streams).
    """

    disc: object                       # EdgeFVDiscretization
    q0: np.ndarray
    config: SolverConfig = field(default_factory=SolverConfig)
    tag: str = ""
    deadline_s: float | None = None


class SolveTicket:
    """Handle to one submitted request.

    ``status`` moves ``queued -> running -> completed`` (or
    ``rejected`` / ``timeout`` / ``failed``).  :meth:`result` blocks
    until terminal and returns the :class:`SolveReport` (or raises the
    recorded error for ``failed``; returns ``None`` for ``timeout`` /
    ``rejected``).
    """

    def __init__(self, request: SolveRequest, rid: int,
                 compat_key: str) -> None:
        self.request = request
        self.rid = rid
        self.compat_key = compat_key
        self.status = "queued"
        self.report = None
        self.error: BaseException | None = None
        self.seeded: dict = {}
        self.trace: dict | None = None
        self.submitted_at = time.perf_counter()
        self.queue_wait_s = 0.0
        self.solve_s = 0.0
        self.total_s = 0.0
        self.batched = False           # ran as a follower in a batch
        self._done = threading.Event()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def _finish(self, status: str) -> None:
        self.status = status
        self.total_s = time.perf_counter() - self.submitted_at
        self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None):
        if not self._done.wait(timeout):
            raise TimeoutError(f"request {self.rid} still {self.status}")
        if self.status == "failed" and self.error is not None:
            raise self.error
        return self.report

    def deadline_at(self) -> float | None:
        d = self.request.deadline_s
        return None if d is None else self.submitted_at + d


@dataclass
class ServiceStats:
    """Service-level counters (cache counters live on the cache)."""

    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    batches: int = 0
    batched_requests: int = 0
    pools_created: int = 0
    pools_discarded: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class SolverService:
    """Concurrent solve service over a shared warm cache.

    Parameters
    ----------
    workers:
        Dispatcher thread count — how many *incompatible* requests can
        solve concurrently (compatible ones serialise on the per-key
        lock and batch instead).
    max_queue:
        Admission bound: queued (not yet dispatched) requests beyond
        this are rejected at submit.
    max_batch:
        Largest same-key group one dispatch drains.
    max_pools:
        Warm worker-pool bound (LRU of full-mesh keys); excess pools
        are closed.
    cache:
        A :class:`~repro.service.cache.ServiceCache`; a private one is
        created when omitted.
    """

    def __init__(self, *, workers: int = 2, max_queue: int = 16,
                 max_batch: int = 8, max_pools: int = 2,
                 cache: ServiceCache | None = None) -> None:
        self.cache = cache or ServiceCache()
        self.stats = ServiceStats()
        self.max_queue = int(max_queue)
        self.max_batch = max(1, int(max_batch))
        self.max_pools = max(0, int(max_pools))
        self._queue: deque[SolveTicket] = deque()
        self._cv = threading.Condition()
        self._key_locks: dict[str, threading.Lock] = {}
        self._warm_pools: dict[str, object] = {}   # pool_key -> layout
        self._pool_order: deque[str] = deque()
        self._closing = False
        self._next_rid = 0
        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"solver-service-{i}")
            for i in range(max(1, int(workers)))]
        # lint: loop-ok (dispatcher startup, O(workers))
        for t in self._threads:
            t.start()

    # -- submission -------------------------------------------------------
    def compat_key(self, request: SolveRequest) -> str:
        """Requests sharing this key share every warm structure."""
        keys = structure_keys(request.disc.mesh, request.config)
        return _digest_parts("compat", keys["ilu_symbolic"],
                             str(request.config.executor))

    def submit(self, request: SolveRequest) -> SolveTicket:
        """Admit (or reject) one request; never blocks on the solve."""
        with self._cv:
            self._next_rid += 1
            ticket = SolveTicket(request, self._next_rid,
                                 self.compat_key(request))
            self.stats.submitted += 1
            if self._closing or len(self._queue) >= self.max_queue:
                self.stats.rejected += 1
                ticket._finish("rejected")
                return ticket
            self._queue.append(ticket)
            self._cv.notify()
            return ticket

    # -- dispatch ---------------------------------------------------------
    def _take_batch(self) -> list[SolveTicket] | None:
        """Pop the head request plus every queued same-key follower
        (called with the condition held)."""
        # lint: loop-ok (dispatch wait loop, O(queued requests))
        while True:
            # lint: loop-ok (condition-variable wait, O(wakeups))
            while not self._queue:
                if self._closing:
                    return None
                self._cv.wait()
            head = self._queue.popleft()
            if self._expire_if_late(head):
                continue
            batch = [head]
            if len(batch) < self.max_batch:
                rest = deque()
                # lint: loop-ok (same-key batch drain, O(max_batch))
                while self._queue and len(batch) < self.max_batch:
                    t = self._queue.popleft()
                    if self._expire_if_late(t):
                        continue
                    if t.compat_key == head.compat_key:
                        batch.append(t)
                    else:
                        rest.append(t)
                self._queue.extendleft(reversed(rest))
            return batch

    def _expire_if_late(self, ticket: SolveTicket) -> bool:
        dl = ticket.deadline_at()
        if dl is not None and time.perf_counter() > dl:
            self.stats.timeouts += 1
            ticket._finish("timeout")
            return True
        return False

    def _worker_loop(self) -> None:
        # The dispatch thread is a lint worker entry: clock reads and
        # shared queue/stat mutation are its job (annotated in place);
        # numerics happen inside the solver under the oracle discipline.
        # lint: loop-ok (service main loop, O(requests served))
        while True:
            with self._cv:
                batch = self._take_batch()
            if batch is None:
                return
            key_lock = self._key_lock(batch[0].compat_key)
            with key_lock:
                if len(batch) > 1:
                    with self._cv:
                        self.stats.batches += 1
                        self.stats.batched_requests += len(batch) - 1
                # lint: loop-ok (runs the drained batch, O(max_batch))
                for i, ticket in enumerate(batch):
                    ticket.batched = i > 0
                    self._run_one(ticket)

    def _key_lock(self, key: str) -> threading.Lock:
        with self._cv:
            lock = self._key_locks.get(key)
            if lock is None:
                # lint: purity-ok (per-key locks are the exclusive-use contract; dispatchers are threads, not forks)
                lock = self._key_locks[key] = threading.Lock()
            return lock

    # -- execution --------------------------------------------------------
    def _run_one(self, ticket: SolveTicket) -> None:
        # Request executor: clock reads (deadlines, latency) are allowed
        # by the module's worker marker; ticket/stat mutation is the
        # service contract.
        if self._expire_if_late(ticket):
            return
        req = ticket.request
        ticket.status = "running"
        ticket.queue_wait_s = time.perf_counter() - ticket.submitted_at
        rec = TraceRecorder()
        rec.add_span_seconds("service_queue", ticket.queue_wait_s)
        pool_key = None
        try:
            with rec.span("service_seed"):
                ctx = seed_solver(self.cache, req.disc, req.config,
                                  recorder=rec)
                ticket.seeded = dict(ctx.seeded)
                pool_key = self._attach_pool(ctx, req)
            deadline = ticket.deadline_at()

            def monitor(record, state):
                if deadline is not None and time.perf_counter() > deadline:
                    raise StopIteration

            t0 = time.perf_counter()
            with rec.span("service_solve"):
                report = ctx.solver.solve(np.asarray(req.q0, float).ravel(),
                                          monitor=monitor)
            ticket.solve_s = time.perf_counter() - t0
            deadline_hit = (deadline is not None
                            and time.perf_counter() > deadline
                            and not report.converged)
            with rec.span("service_harvest"):
                harvest_context(self.cache, ctx)
            ticket.report = report
            ticket.trace = rec.to_dict()
            with self._cv:
                if deadline_hit:
                    self.stats.timeouts += 1
                else:
                    self.stats.completed += 1
            ticket._finish("timeout" if deadline_hit else "completed")
        except ProcPoolError as err:
            # Quarantine: record the failure on the ticket, drop the
            # broken pool and its warm context, keep serving.
            ticket.error = err
            ticket.trace = rec.to_dict()
            self._discard_pool(pool_key)
            with self._cv:
                self.stats.failed += 1
            ticket._finish("failed")
        except Exception as err:      # noqa: BLE001 - ticket carries it
            ticket.error = err
            ticket.trace = rec.to_dict()
            with self._cv:
                self.stats.failed += 1
            ticket._finish("failed")

    # -- warm pools -------------------------------------------------------
    def _pool_key(self, req: SolveRequest) -> str:
        cfg = req.config
        return _digest_parts("pool", mesh_hash(req.disc.mesh),
                             self.compat_key(req), str(cfg.nworkers),
                             str(cfg.engine))

    def _attach_pool(self, ctx, req: SolveRequest) -> str | None:
        """For proc requests: reuse (or create) the persistent warm
        pool for this mesh + config, attached to the solver's layout."""
        if req.config.executor != "proc":
            return None
        key = self._pool_key(req)
        with self._cv:
            layout = self._warm_pools.get(key)
        pool = getattr(layout, "pool", None) if layout is not None else None
        if (layout is not None and pool is not None
                and not pool.closed and not pool.broken):
            # Adopt the pooled layout wholesale (its gather cache and
            # workers are warm); the solver was built over the same
            # labels, so the swap is transparent.
            ctx.solver._layout = layout
            return key
        from repro.parallel.procpool import ProcPool
        layout = ctx.solver._layout
        # Layouts are cached by topology, pools by full mesh hash: a
        # perturbed mesh arrives on a layout still carrying the other
        # mesh's pool.  A layout holds one pool, so every entry that
        # points at this layout is retired with the pool it names.
        with self._cv:
            # lint: loop-ok (stale warm-pool entries, O(max_pools))
            for k in [k for k, lay in self._warm_pools.items()
                      if k == key or lay is layout]:
                self._discard_pool(k)
        # attaches to layout.pool
        ProcPool(layout, req.disc, nworkers=req.config.nworkers)
        with self._cv:
            self.stats.pools_created += 1
            self._warm_pools[key] = layout
            self._pool_order.append(key)
            # lint: loop-ok (LRU pool eviction, O(max_pools))
            while len(self._pool_order) > self.max_pools:
                old = self._pool_order.popleft()
                if old != key:
                    self._close_pool_entry(old)
        return key

    def _close_pool_entry(self, key: str) -> None:
        layout = self._warm_pools.pop(key, None)
        if layout is not None and layout.pool is not None:
            try:
                layout.pool.close()
            finally:
                self.stats.pools_discarded += 1

    def _discard_pool(self, key: str | None) -> None:
        if key is None:
            return
        with self._cv:
            if key in self._warm_pools:
                try:
                    self._pool_order.remove(key)
                except ValueError:
                    pass
                self._close_pool_entry(key)

    # -- lifecycle --------------------------------------------------------
    def close(self, *, drain: bool = True,
              timeout: float | None = None) -> None:
        """Stop the service: reject new submits, optionally drain the
        queue (``drain=False`` expires queued requests as ``timeout``),
        join the dispatchers, close every warm pool."""
        with self._cv:
            self._closing = True
            if not drain:
                # lint: loop-ok (queue flush at shutdown, O(queued))
                while self._queue:
                    t = self._queue.popleft()
                    self.stats.timeouts += 1
                    t._finish("timeout")
            self._cv.notify_all()
        # lint: loop-ok (dispatcher join at shutdown, O(workers))
        for t in self._threads:
            t.join(timeout)
        with self._cv:
            # lint: loop-ok (warm-pool teardown, O(max_pools))
            for key in list(self._warm_pools):
                self._close_pool_entry(key)
            self._pool_order.clear()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def snapshot(self) -> dict:
        """Stats + cache telemetry, JSON-ready."""
        with self._cv:
            queued = len(self._queue)
        return {"service": self.stats.to_dict(),
                "queued": queued,
                "cache": self.cache.stats_dict()}
