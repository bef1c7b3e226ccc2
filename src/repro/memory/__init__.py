"""Trace-driven memory-hierarchy simulation.

The paper reads TLB- and L2-miss counts off the R10000's hardware
counters (Fig. 3).  We do not have that hardware, so this package
*simulates* it: the kernels' exact memory-reference streams (SpMV and
the edge-based flux loop, under every layout of Table 1) are generated
as address traces and run through set-associative LRU cache and TLB
models with the R10000's geometry.  Miss counts — and especially miss
*ratios* between layouts — are properties of the access pattern, which
the simulation reproduces exactly.
"""

from repro.memory.cache import CacheConfig, CacheSim
from repro.memory.fastsim import FastCacheSim, simulate_trace
from repro.memory.tlb import TLBConfig, tlb_sim
from repro.memory.hierarchy import MemoryHierarchy, HierarchyCounters
from repro.memory.trace import (
    TraceLayout,
    spmv_csr_trace,
    spmv_bsr_trace,
    flux_loop_trace,
)

__all__ = [
    "CacheConfig",
    "CacheSim",
    "FastCacheSim",
    "simulate_trace",
    "TLBConfig",
    "tlb_sim",
    "MemoryHierarchy",
    "HierarchyCounters",
    "TraceLayout",
    "spmv_csr_trace",
    "spmv_bsr_trace",
    "flux_loop_trace",
]
