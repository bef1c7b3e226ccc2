"""One-call hierarchy counters for the paper experiments.

Fig. 3 and Table 1 both need the same thing: feed one or more kernel
address traces (flux loop, then SpMV, matching the order of work in a
Newton step) through a fresh R10000-style hierarchy and read the
counter report.  This helper owns that plumbing so the experiment
scripts stay declarative; the vectorised simulator behind it makes
full-mesh (unscaled) traces practical.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyCounters, MemoryHierarchy
from repro.memory.tlb import TLBConfig

__all__ = ["hierarchy_counters"]


def hierarchy_counters(traces: Iterable[np.ndarray], l1: CacheConfig,
                       l2: CacheConfig, tlb: TLBConfig) -> HierarchyCounters:
    """Run ``traces`` (in order) through a cold hierarchy.

    Cache and TLB state carries over from trace to trace — the second
    kernel of a step sees the lines the first left resident — exactly
    as :meth:`MemoryHierarchy.run` accumulates.
    """
    hier = MemoryHierarchy(l1, l2, tlb)
    for trace in traces:
        hier.run(trace)
    return hier.counters
