"""Set-associative LRU cache simulator: the geometry, the counters and
the per-reference oracle.

One code path covers every structure we model: a direct-mapped cache
(associativity 1), the R10000's 2-way L1/L2, and the TLB (a fully
associative cache whose "line" is the page).  Sets are OrderedDicts so
hit, insert, and LRU eviction are all O(1), at ~1 microsecond of
Python per reference.  :class:`CacheSim` is the oracle of the
vectorised :class:`repro.memory.fastsim.FastCacheSim`, which every
experiment runs; the tests construct it directly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["CacheConfig", "CacheSim", "CacheCounters"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``capacity_bytes`` must be ``line_bytes * associativity * nsets``
    with a power-of-two number of sets (checked).
    """

    name: str
    capacity_bytes: int
    line_bytes: int
    associativity: int

    def __post_init__(self) -> None:
        if self.capacity_bytes % (self.line_bytes * self.associativity):
            raise ValueError("capacity not divisible by line*assoc")
        nsets = self.nsets
        if nsets & (nsets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def nsets(self) -> int:
        return self.capacity_bytes // (self.line_bytes * self.associativity)

    @property
    def capacity_words(self) -> int:
        """Capacity in 8-byte double words (the paper's C_sc)."""
        return self.capacity_bytes // 8

    @property
    def line_words(self) -> int:
        """Line size in double words (the paper's W_sc)."""
        return self.line_bytes // 8


@dataclass
class CacheCounters:
    accesses: int
    misses: int

    @property
    def hits(self) -> int:
        return self.accesses - self.misses


class CacheSim:
    """Stateful simulator; feed byte addresses, read the counters."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[OrderedDict] = [OrderedDict()
                                         for _ in range(config.nsets)]
        self.accesses = 0
        self.misses = 0

    def reset(self) -> None:
        for s in self._sets:
            s.clear()
        self.accesses = 0
        self.misses = 0

    def access(self, addresses: np.ndarray,
               record_misses: bool = False) -> np.ndarray | None:
        """Run a batch of byte addresses through the cache.

        With ``record_misses`` the boolean miss mask is returned (used
        to filter the trace for the next cache level).
        """
        lines = (np.asarray(addresses, dtype=np.int64)
                 // self.config.line_bytes).tolist()
        nsets = self.config.nsets
        assoc = self.config.associativity
        sets = self._sets
        mask = np.zeros(len(lines), dtype=bool) if record_misses else None
        misses = 0
        for i, line in enumerate(lines):
            od = sets[line & (nsets - 1)]
            if line in od:
                od.move_to_end(line)
            else:
                misses += 1
                if record_misses:
                    mask[i] = True           # type: ignore[index]
                od[line] = None
                if len(od) > assoc:
                    od.popitem(last=False)
        self.accesses += len(lines)
        self.misses += misses
        return mask

    @property
    def counters(self) -> CacheCounters:
        return CacheCounters(accesses=self.accesses, misses=self.misses)
