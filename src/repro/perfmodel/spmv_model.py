"""The paper's SpMV performance models.

Two families:

1. **Conflict-miss bounds** (paper Eqs. 1-2): for a matrix of N rows
   and working-set bandwidth beta (matrix bandwidth after reordering,
   ~N when noninterlaced/unordered), the number of conflict misses of
   the x-gather is bounded by ``N * ceil((beta - C) / W)`` once the
   working set beta exceeds the cache capacity C (both in double
   words, W = line size in words).  Interlacing + RCM shrink beta from
   ~N to ~surface-size, moving the bound to zero.

2. **Memory-traffic bounds** (reference [10]): SpMV moves every matrix
   word exactly once, so its achievable Mflop/s on a machine is
   ``2 nnz / (traffic / stream_bw)`` — a bandwidth bound far below
   peak.  Structural blocking reduces index traffic by ~bs^2 and
   single-precision storage halves value traffic, which is the entire
   content of Tables 1-2's middle columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.cache import CacheConfig
from repro.memory.tlb import TLBConfig
from repro.perfmodel.machines import MachineSpec

__all__ = ["conflict_miss_bound", "tlb_miss_bound", "spmv_traffic_bytes",
           "spmv_bandwidth_mflops", "spmv_transfer_estimate", "SpMVTraffic"]


def conflict_miss_bound(n_rows: int, bandwidth_words: float,
                        cache: CacheConfig) -> float:
    """Paper Eq. 1/Eq. 2 upper bound on x-gather conflict misses.

    ``bandwidth_words``: the span (in double words) of the x entries a
    single row's gather touches — ~N*ncomp for the noninterlaced
    layout (Eq. 1), the reordered matrix bandwidth for the interlaced
    one (Eq. 2).  Returns 0 when the working set fits in cache.
    """
    c = cache.capacity_words
    w = cache.line_words
    if bandwidth_words < c:
        return 0.0
    return n_rows * np.ceil((bandwidth_words - c) / w)


def tlb_miss_bound(n_rows: int, bandwidth_words: float,
                   tlb: TLBConfig) -> float:
    """TLB analogue of the conflict-miss bound.

    The paper substitutes the PTE count for C_sc and the page size for
    W_sc; we use the TLB *reach* in words as the capacity (the
    dimensionally consistent reading) and the page size in words as
    the line.
    """
    reach_words = tlb.reach_bytes // 8
    w = tlb.page_words
    if bandwidth_words < reach_words:
        return 0.0
    return n_rows * np.ceil((bandwidth_words - reach_words) / w)


@dataclass
class SpMVTraffic:
    """Per-product memory traffic decomposition, in bytes."""

    matrix_bytes: int
    index_bytes: int
    vector_bytes: int      # x (assuming perfect cache reuse) + y in/out

    @property
    def total(self) -> int:
        return self.matrix_bytes + self.index_bytes + self.vector_bytes


def spmv_traffic_bytes(n_rows: int, nnz: int, *, block_size: int = 1,
                       value_bytes: int = 8, index_bytes: int = 4,
                       x_cached: bool = True) -> SpMVTraffic:
    """Compulsory traffic of one SpMV.

    With ``block_size`` b the matrix has ``nnz`` scalar entries in
    ``nnz / b^2`` blocks, so only one column index per block is read.
    ``x_cached=False`` charges every x gather to memory (the
    no-reuse / huge-bandwidth regime of the noninterlaced layout).
    """
    nblocks = nnz // (block_size * block_size) if block_size > 1 else nnz
    nbrows = n_rows // block_size if block_size > 1 else n_rows
    matrix = nnz * value_bytes
    index = nblocks * index_bytes + (nbrows + 1) * index_bytes
    if x_cached:
        vector = n_rows * value_bytes * 3       # x once, y read+write
    else:
        vector = (nblocks * block_size + 2 * n_rows) * value_bytes
    return SpMVTraffic(matrix_bytes=matrix, index_bytes=index,
                       vector_bytes=vector)


def spmv_bandwidth_mflops(n_rows: int, nnz: int, machine: MachineSpec, *,
                          block_size: int = 1, value_bytes: int = 8,
                          x_cached: bool = True) -> float:
    """Achievable SpMV Mflop/s under the memory-bandwidth bound
    (reference [10]'s 'realistic performance bound')."""
    traffic = spmv_traffic_bytes(n_rows, nnz, block_size=block_size,
                                 value_bytes=value_bytes, x_cached=x_cached)
    t = traffic.total / machine.stream_bw
    return 2.0 * nnz / t / 1e6


def spmv_transfer_estimate(n_rows: int, nnz: int, *, block_size: int = 1,
                           value_bytes: int = 8) -> float:
    """Bytes per flop of SpMV (inverse arithmetic intensity)."""
    traffic = spmv_traffic_bytes(n_rows, nnz, block_size=block_size,
                                 value_bytes=value_bytes)
    return traffic.total / (2.0 * nnz)
