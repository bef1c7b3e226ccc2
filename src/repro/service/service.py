"""The long-running solver service: admission, batching, warm structures.

Request lifecycle::

    submit(SolveRequest) ──► bounded queue ──► dispatcher thread
        │ (reject when full)      │ (drop when deadline passed)
        ▼                         ▼
    SolveTicket ◄── harvest ◄── solve ◄── seed (warm-cache probe)

* **Admission control** — the queue is bounded (``max_queue``); a
  submit against a full queue is rejected immediately (the ticket
  comes back ``rejected``, nothing enqueues).  Each request carries an
  optional deadline; a request whose deadline passes while queued is
  dropped as ``timeout`` without running, and a running solve checks
  the deadline every pseudo-timestep (the SNES-monitor idiom) and
  stops as ``timeout`` mid-solve.
* **Batching** — requests are grouped by *compatibility key* (mesh
  topology + the config knobs that shape reusable structures, the
  executor included), which is also the key of their warm cache
  entry.  When a dispatcher picks a request it also drains every
  queued request with the same key (up to ``_MAX_BATCH``) and runs
  them back-to-back under one per-key lock, so the warm structures
  are seeded once and the followers pay only the numeric work.  The
  per-key lock is also the exclusive-use contract of the mutable warm
  structures.
* **Failures** — a solve that raises ends its request as ``failed``
  with the exception on ``ticket.error``; the dispatcher goes on to the
  next request.
* **Telemetry** — every request gets its own
  :class:`~repro.telemetry.TraceRecorder`; the service books
  ``service_queue`` / ``service_seed`` / ``service_solve`` /
  ``service_harvest`` envelope spans around the solver's own phase
  spans, and the ticket carries the trace dict.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SolverConfig
from repro.service.cache import ServiceCache
from repro.service.warm import harvest_context, seed_solver, warm_key
from repro.telemetry.recorder import TraceRecorder

__all__ = ["SolveRequest", "SolveTicket", "ServiceStats", "SolverService"]

_MAX_BATCH = 8      # the largest same-key group one dispatch drains


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
    ``rejected`` / ``timeout`` / ``failed``).  :meth:`wait` blocks
    until terminal; then ``report`` holds the :class:`SolveReport` of a
    ``completed`` request and ``error`` what a ``failed`` one raised
    (both ``None`` for ``timeout`` / ``rejected``).
    """

    def __init__(self, request: SolveRequest, rid: int,
                 compat_key: tuple) -> None:
        self.request = request
        self.rid = rid
        self.compat_key = compat_key
        self.status = "queued"
        self.report = None
        self.error: BaseException | None = None
        self.seeded = False            # the warm entry was there
        self.trace: dict | None = None
        self.submitted_at = time.perf_counter()
        self.queue_wait_s = 0.0
        self.solve_s = 0.0
        self.total_s = 0.0
        self.batched = False           # ran as a follower in a batch
        self._done = threading.Event()

    def _finish(self, status: str) -> None:
        self.status = status
        self.total_s = time.perf_counter() - self.submitted_at
        self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

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
    cache:
        A :class:`~repro.service.cache.ServiceCache`; a private one is
        created when omitted.
    """

    def __init__(self, *, workers: int = 2, max_queue: int = 16,
                 cache: ServiceCache | None = None) -> None:
        self.cache = cache or ServiceCache()
        self.stats = ServiceStats()
        self.max_queue = int(max_queue)
        self._queue: deque[SolveTicket] = deque()
        self._cv = threading.Condition()
        self._key_locks: dict[tuple, threading.Lock] = {}
        self._closing = False
        self._next_rid = 0
        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"solver-service-{i}")
            for i in range(max(1, int(workers)))]
        for t in self._threads:
            t.start()

    # -- submission -------------------------------------------------------
    def compat_key(self, request: SolveRequest) -> tuple:
        """Requests sharing this key share one warm cache entry."""
        return warm_key(request.disc.mesh, request.config)

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
        while True:
            while not self._queue:
                if self._closing:
                    return None
                self._cv.wait()
            head = self._queue.popleft()
            if self._expire_if_late(head):
                continue
            batch = [head]
            rest = deque()
            while self._queue and len(batch) < _MAX_BATCH:
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
        # The dispatch thread reads clocks and mutates the shared queue
        # and stats; numerics happen inside the solver under the oracle
        # discipline.
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
                for i, ticket in enumerate(batch):
                    ticket.batched = i > 0
                    self._run_one(ticket)

    def _key_lock(self, key: tuple) -> threading.Lock:
        with self._cv:
            lock = self._key_locks.get(key)
            if lock is None:
                # Per-key locks are the exclusive-use contract (dispatchers are threads).
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
        try:
            with rec.span("service_seed"):
                ctx = seed_solver(self.cache, req.disc, req.config,
                                  recorder=rec)
                ticket.seeded = ctx.seeded
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
        except Exception as err:      # noqa: BLE001 - ticket carries it
            ticket.error = err
            ticket.trace = rec.to_dict()
            with self._cv:
                self.stats.failed += 1
            ticket._finish("failed")

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Stop the service: reject new submits, drain the queue, and
        join the dispatchers."""
        with self._cv:
            self._closing = True
            self._cv.notify_all()
        for t in self._threads:
            t.join()

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
