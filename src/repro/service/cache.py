"""In-memory warm-structure cache with hit/miss/byte telemetry.

One :class:`ServiceCache` instance backs a running
:class:`~repro.service.service.SolverService`.  It holds one entry per
compatibility key (:func:`repro.service.warm.warm_key`): everything a
finished solve built — the partition labels, the SPMD layout with its
scatter plan and SpMV gather structure, and the preconditioner with its
symbolic ILU(k) patterns (and, on the numpy tier, the elimination and
level schedules riding them).  These are the setup structures the
paper's Table 4/5 pipeline amortises.

The cache stores live objects, not serialised bytes — it is a warm
in-process cache, the generalisation of the proc pool's sha1 matrix
token, not a persistence layer.  ``nbytes`` records the approximate
resident size of each entry so the byte telemetry means "working set
retained", and an LRU bound (``max_entries``) keeps a long-running
service from accumulating every mesh it ever saw.

Thread safety: all mutating operations take one internal lock; the
values themselves are handed out by reference, so *exclusive use* of a
mutable structure (a preconditioner, a layout with its scatter plan)
is the caller's contract — the service serialises requests per
compatibility key, the same key the entry lives under, for exactly
this reason.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["CacheStats", "ServiceCache"]


@dataclass
class CacheStats:
    """Cache counters."""

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
    """LRU structure cache: one ordered table and its stats.

    ``max_entries=0`` caches nothing (every put is evicted at once).
    """

    max_entries: int = 32
    _table: OrderedDict = field(default_factory=OrderedDict, init=False,
                                repr=False)
    _stats: CacheStats = field(default_factory=CacheStats, init=False,
                               repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_entries < 0:
            raise ValueError(
                f"max_entries must be >= 0, got {self.max_entries}")

    def get(self, key):
        """Return the cached value or None; books a hit or a miss."""
        with self._lock:
            table, st = self._table, self._stats
            ent = table.get(key)
            if ent is None:
                st.misses += 1
                return None
            table.move_to_end(key)
            st.hits += 1
            st.bytes_served += ent.nbytes
            return ent.value

    def put(self, key, value, nbytes: int = 0) -> None:
        """Insert/replace an entry; evicts least-recently-used past
        ``max_entries``."""
        with self._lock:
            table, st = self._table, self._stats
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

    def stats(self) -> CacheStats:
        return self._stats

    def stats_dict(self) -> dict:
        """The counters under the cache's one name, ``warm``."""
        with self._lock:
            return {"warm": self._stats.to_dict()}
