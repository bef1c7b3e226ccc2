"""Multi-level memory hierarchy: L1 -> L2 -> memory, plus the TLB.

The L2 sees only the references that miss in L1 (in order), exactly as
on the real machine; the TLB sees every reference (address translation
happens before the cache lookup on the R10000).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.cache import CacheConfig
from repro.memory.fastsim import FastCacheSim
from repro.memory.tlb import TLBConfig, tlb_sim

__all__ = ["HierarchyCounters", "MemoryHierarchy"]


@dataclass
class HierarchyCounters:
    """The Fig. 3-style counter report."""

    accesses: int
    l1_misses: int
    l2_misses: int
    tlb_misses: int

    def row(self) -> dict[str, int | float]:
        return {
            "accesses": self.accesses,
            "l1_misses": self.l1_misses,
            "l2_misses": self.l2_misses,
            "tlb_misses": self.tlb_misses,
        }


class MemoryHierarchy:
    """A two-level cache plus TLB fed from one trace.

    Every level runs the vectorised :mod:`repro.memory.fastsim`
    simulator — including the L1-miss-filtered L2 stream, whose filter
    mask is a vectorised output.  Its counters are bitwise those of the
    per-reference :class:`~repro.memory.cache.CacheSim` oracle in each
    level's place (``tests/test_memory_fastsim.py`` swaps them in).
    """

    def __init__(self, l1: CacheConfig, l2: CacheConfig,
                 tlb: TLBConfig) -> None:
        self.l1 = FastCacheSim(l1)
        self.l2 = FastCacheSim(l2)
        self.tlb = tlb_sim(tlb)

    def run(self, addresses: np.ndarray) -> "MemoryHierarchy":
        """Feed a trace; counters accumulate across calls."""
        addresses = np.asarray(addresses, dtype=np.int64)
        self.tlb.access(addresses)
        miss_mask = self.l1.access(addresses, record_misses=True)
        if miss_mask is not None and miss_mask.any():
            self.l2.access(addresses[miss_mask])
        return self

    @property
    def counters(self) -> HierarchyCounters:
        return HierarchyCounters(
            accesses=self.l1.accesses,
            l1_misses=self.l1.misses,
            l2_misses=self.l2.misses,
            tlb_misses=self.tlb.misses,
        )
