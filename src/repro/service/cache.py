"""Namespaced in-memory structure cache with hit/miss/byte telemetry.

One :class:`ServiceCache` instance backs a running
:class:`~repro.service.service.SolverService`.  Namespaces mirror the
setup structures the paper's Table 4/5 pipeline amortises:

========================  ============================================
namespace                 cached value
========================  ============================================
``partition``             per-vertex rank labels of a mesh topology
``gather``                the SPMD layout with its per-rank SpMV
                          gather structures (the sequential analogue
                          of the proc workers' struct cache) riding
                          ``SPMDLayout.gather_cache``
``ilu_symbolic``          the subdomain symbolic ILU(k) patterns,
                          with the elimination/level schedules of a
                          numpy-tier solve riding them (via the
                          harvested preconditioner; its refresh path
                          makes reuse numeric-only)
========================  ============================================

The cache stores live objects, not serialised bytes — it is a warm
in-process cache, the generalisation of the proc pool's sha1 matrix
token, not a persistence layer.  ``nbytes`` records the approximate
resident size of each entry so the byte telemetry means "working set
retained", and an LRU bound (``max_entries`` per namespace) keeps a
long-running service from accumulating every mesh it ever saw.

Thread safety: all mutating operations take one internal lock; the
values themselves are handed out by reference, so *exclusive use* of a
mutable structure (a preconditioner, a layout with its gather cache)
is the caller's contract — the service serialises requests per
compatibility key for exactly this reason.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["CacheStats", "ServiceCache"]

NAMESPACES = ("partition", "gather", "ilu_symbolic")


@dataclass
class CacheStats:
    """Per-namespace counters."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    bytes_stored: int = 0      # resident size of live entries
    bytes_served: int = 0      # cumulative size of entries served

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "evictions": self.evictions,
                "bytes_stored": self.bytes_stored,
                "bytes_served": self.bytes_served,
                "hit_ratio": self.hit_ratio}


@dataclass
class _Entry:
    value: object
    nbytes: int


@dataclass
class ServiceCache:
    """LRU structure cache, one ordered table + stats per namespace."""

    max_entries: int = 32
    _tables: dict = field(default_factory=dict, repr=False)
    _stats: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def __post_init__(self) -> None:
        for ns in NAMESPACES:
            self._tables[ns] = OrderedDict()
            self._stats[ns] = CacheStats()

    def _table(self, ns: str) -> OrderedDict:
        if ns not in self._tables:
            raise KeyError(f"unknown cache namespace {ns!r} "
                           f"(expected one of {NAMESPACES})")
        return self._tables[ns]

    def get(self, ns: str, key: str):
        """Return the cached value or None; books a hit or a miss."""
        with self._lock:
            table = self._table(ns)
            st = self._stats[ns]
            ent = table.get(key)
            if ent is None:
                st.misses += 1
                return None
            table.move_to_end(key)
            st.hits += 1
            st.bytes_served += ent.nbytes
            return ent.value

    def put(self, ns: str, key: str, value, nbytes: int = 0) -> None:
        """Insert/replace an entry; evicts least-recently-used past
        ``max_entries``."""
        with self._lock:
            table = self._table(ns)
            st = self._stats[ns]
            old = table.pop(key, None)
            if old is not None:
                st.bytes_stored -= old.nbytes
            table[key] = _Entry(value, int(nbytes))
            st.puts += 1
            st.bytes_stored += int(nbytes)
            while len(table) > self.max_entries:
                _, evicted = table.popitem(last=False)
                st.evictions += 1
                st.bytes_stored -= evicted.nbytes

    def contains(self, ns: str, key: str) -> bool:
        """Presence probe without touching the hit/miss counters."""
        with self._lock:
            return key in self._table(ns)

    def stats(self) -> dict[str, CacheStats]:
        with self._lock:
            return dict(self._stats)

    def stats_dict(self) -> dict:
        return {ns: st.to_dict() for ns, st in self.stats().items()}

    def clear(self) -> None:
        with self._lock:
            for ns in NAMESPACES:
                self._tables[ns].clear()
                self._stats[ns].bytes_stored = 0
