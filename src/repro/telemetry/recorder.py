"""The trace recorder: nestable phase spans and per-rank counters.

The paper's Table 3 *measures* where time goes — scatters, reductions,
and the implicit-synchronisation wait of a rank at the end of each
bulk phase — and only then factors efficiency into
``eta_overall = eta_alg x eta_impl``.  The rest of this repository
*models* those costs (:mod:`repro.parallel.simulate`); this module is
the measurement side: a :class:`TraceRecorder` that the ΨNKS stack
threads through its hot paths (driver, Krylov solvers, Schwarz
preconditioner, SPMD kernels) so an instrumented run *observes*

* wall time per phase, per rank, with spans nesting like call frames
  (inclusive and self time, on :func:`time.perf_counter`: monotonic,
  the highest resolution available);
* counters — iterations, messages, bytes, reductions — per rank;
* the max-over-ranks wait of each bulk-synchronous phase instance
  (``max_r t_r - t_own``), i.e. load imbalance as seen by the data,
  not assumed by a model.

Every instrumented call site takes ``recorder=None`` and substitutes
:data:`NULL_RECORDER`, whose spans are a cached no-op context manager,
so uninstrumented runs (the tier-1 default) pay essentially nothing
and produce bitwise-identical numerics — telemetry never touches the
arrays, only the clock.
"""

from __future__ import annotations

import time

__all__ = ["KNOWN_PHASES", "TraceRecorder", "NullRecorder", "NULL_RECORDER"]

#: The phase vocabulary.  The recorder and trace validation (and the CI
#: smoke check) reject any phase name outside this set, so a typo at a
#: call site cannot silently split a phase's time into an orphan bucket.
KNOWN_PHASES = frozenset({
    "flux",              # residual / flux evaluation
    "jacobian",          # first-order Jacobian assembly (+ PTC shift)
    "precond_setup",     # subdomain extraction + ILU(k) factorisation
    "trisolve",          # subdomain forward/backward triangular solves
    "orthogonalization", # Gram-Schmidt in the Krylov loop (its dots
                         # and norms are the solve's global reductions)
    "ghost_exchange",    # the VecScatter: ghost refresh payloads
    "matvec",            # distributed or operator matrix-vector product
    "krylov",            # the whole linear solve (envelope span)
    "service_queue",     # admission-to-dispatch wait of a service request
    "service_seed",      # warm-structure seeding (cache probes + build)
    "service_solve",     # the whole solve (envelope span, service side)
    "service_harvest",   # post-solve structure harvest into the cache
})


class _Span:
    """One active span; context manager handed out by ``span()``.

    After ``__exit__`` the measured interval is on :attr:`elapsed`
    (seconds), so call sites can both record and locally inspect the
    same measurement (the SPMD rank loops use this for wait accounting).
    """

    __slots__ = ("_rec", "phase", "rank", "_start", "elapsed", "_child_s")

    def __init__(self, rec: "TraceRecorder", phase: str, rank: int) -> None:
        self._rec = rec
        self.phase = phase
        self.rank = rank
        self._start = 0.0
        self.elapsed = 0.0
        self._child_s = 0.0     # time spent in directly nested spans

    def __enter__(self) -> "_Span":
        self._rec._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
        rec = self._rec
        # Pop unconditionally (exceptions included) so a raise inside a
        # span cannot corrupt the nesting of subsequent measurements.
        rec._stack.pop()
        if rec._stack:
            rec._stack[-1]._child_s += self.elapsed
        rec._commit(self)


class TraceRecorder:
    """Accumulating per-(phase, rank) span times, counters, and waits.

    ``span()``, ``record_wait()`` and ``add_span_seconds()`` raise
    :class:`ValueError` for a phase name outside :data:`KNOWN_PHASES`.
    """

    def __init__(self) -> None:
        self._stack: list[_Span] = []
        # (phase, rank) -> [inclusive_s, self_s, calls]
        self._spans: dict[tuple[str, int], list] = {}
        # (phase, rank) -> accumulated bulk-phase wait seconds
        self._waits: dict[tuple[str, int], float] = {}
        # (name, rank) -> accumulated counter value
        self._counters: dict[tuple[str, int], float] = {}

    # -- recording -----------------------------------------------------
    def span(self, phase: str, rank: int = 0) -> _Span:
        """Open a nestable span; use as ``with rec.span("flux"): ...``."""
        if phase not in KNOWN_PHASES:
            raise ValueError(f"unknown phase name {phase!r} "
                             f"(known: {sorted(KNOWN_PHASES)})")
        return _Span(self, phase, int(rank))

    def _commit(self, sp: _Span) -> None:
        cell = self._spans.setdefault((sp.phase, sp.rank), [0.0, 0.0, 0])
        cell[0] += sp.elapsed
        cell[1] += sp.elapsed - sp._child_s
        cell[2] += 1

    def count(self, name: str, value: float = 1, rank: int = 0) -> None:
        """Accumulate ``value`` on counter ``name`` for ``rank``."""
        key = (name, int(rank))
        self._counters[key] = self._counters.get(key, 0) + value

    def record_wait(self, phase: str, per_rank_seconds) -> None:
        """Account one bulk-synchronous instance of ``phase``.

        ``per_rank_seconds[r]`` is what rank ``r`` spent computing; the
        implicit-synchronisation wait charged to each rank is
        ``max_r t_r - t_own`` — the paper's load-imbalance category.
        """
        if phase not in KNOWN_PHASES:
            raise ValueError(f"unknown phase name {phase!r}")
        ts = [float(t) for t in per_rank_seconds]
        if not ts:
            return
        tmax = max(ts)
        for r, t in enumerate(ts):
            key = (phase, r)
            self._waits[key] = self._waits.get(key, 0.0) + (tmax - t)

    def add_span_seconds(self, phase: str, seconds: float, rank: int = 0, *,
                         calls: int = 1,
                         self_seconds: float | None = None) -> None:
        """Account span time measured outside this recorder's clock.

        The solver service measures a request's queue wait before the
        request's recorder exists, and the compiled seq matvec times
        each rank inside one C call; this feeds such an interval into
        the same accumulators ``span()`` commits to.  ``self_seconds``
        defaults to the full interval (no nested spans).  Inside an open
        span the interval is that span's child time, as a nested
        ``span()`` would be, so the parent's self time excludes it.
        """
        if phase not in KNOWN_PHASES:
            raise ValueError(f"unknown phase name {phase!r}")
        cell = self._spans.setdefault((phase, int(rank)), [0.0, 0.0, 0])
        cell[0] += float(seconds)
        cell[1] += float(seconds if self_seconds is None else self_seconds)
        cell[2] += int(calls)
        if self._stack:
            self._stack[-1]._child_s += float(seconds)

    # -- queries -------------------------------------------------------
    def phases(self) -> list[str]:
        keys = {p for p, _ in self._spans} | {p for p, _ in self._waits}
        return sorted(keys)

    def ranks(self, phase: str | None = None) -> list[int]:
        keys = [r for (p, r) in list(self._spans) + list(self._waits)
                if phase is None or p == phase]
        return sorted(set(keys))

    def _sum(self, table, phase, rank, idx=None) -> float:
        total = 0.0
        for (p, r), v in table.items():
            if p == phase and (rank is None or r == rank):
                total += v[idx] if idx is not None else v
        return total

    def phase_seconds(self, phase: str, rank: int | None = None) -> float:
        """Inclusive span seconds (summed over ranks when rank=None)."""
        return self._sum(self._spans, phase, rank, 0)

    def self_seconds(self, phase: str, rank: int | None = None) -> float:
        """Exclusive seconds: span time minus directly nested spans."""
        return self._sum(self._spans, phase, rank, 1)

    def phase_calls(self, phase: str, rank: int | None = None) -> int:
        return int(self._sum(self._spans, phase, rank, 2))

    def wait_seconds(self, phase: str, rank: int | None = None) -> float:
        return self._sum(self._waits, phase, rank)

    def counter(self, name: str, rank: int | None = None) -> float:
        total = 0.0
        for (n, r), v in self._counters.items():
            if n == name and (rank is None or r == rank):
                total += v
        return total

    def counters(self) -> list[str]:
        return sorted({n for n, _ in self._counters})

    def phase_wall(self, phase: str) -> float:
        """Wall seconds of a bulk-synchronous phase.

        For every rank, own compute plus accumulated wait equals the
        per-instance max summed over instances, so the wall time is the
        max over ranks of ``total + wait`` (for single-rank or purely
        nested phases it degenerates to the span total).
        """
        ranks = self.ranks(phase)
        if not ranks:
            return 0.0
        return max(self.phase_seconds(phase, r) + self.wait_seconds(phase, r)
                   for r in ranks)

    # -- export --------------------------------------------------------
    def to_dict(self, meta: dict | None = None) -> dict:
        """The JSON-ready trace document (see :mod:`repro.telemetry.trace`)."""
        phases: dict[str, dict] = {}
        for (p, r), (tot, self_s, calls) in sorted(self._spans.items()):
            phases.setdefault(p, {})[str(r)] = {
                "total_s": tot, "self_s": self_s, "count": calls,
                "wait_s": self._waits.get((p, r), 0.0),
            }
        # Wait recorded for a (phase, rank) with no committed span
        # (possible for pure-communication phases) still gets a row.
        for (p, r), w in sorted(self._waits.items()):
            phases.setdefault(p, {}).setdefault(str(r), {
                "total_s": 0.0, "self_s": 0.0, "count": 0, "wait_s": w})
        counters: dict[str, dict] = {}
        for (n, r), v in sorted(self._counters.items()):
            counters.setdefault(n, {})[str(r)] = v
        return {
            "schema_version": 1,
            "meta": dict(meta or {}),
            "phases": phases,
            "counters": counters,
        }


class _NullSpan:
    """Reusable, re-entrant no-op span."""

    __slots__ = ()
    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The default recorder: every operation is a no-op.

    Instrumented call sites do ``rec = recorder or NULL_RECORDER`` so
    the tier-1 (uninstrumented) path costs one attribute lookup and a
    cached context manager per span — no allocation, no clock reads.
    """

    def span(self, phase: str, rank: int = 0) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1, rank: int = 0) -> None:
        return None

    def record_wait(self, phase: str, per_rank_seconds) -> None:
        return None

    def add_span_seconds(self, phase: str, seconds: float, rank: int = 0, *,
                         calls: int = 1,
                         self_seconds: float | None = None) -> None:
        return None


NULL_RECORDER = NullRecorder()
