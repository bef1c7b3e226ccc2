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

__all__ = ["conflict_miss_bound", "spmv_traffic_bytes", "SpMVTraffic"]


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
                       value_bytes: int = 8,
                       index_bytes: int = 4) -> SpMVTraffic:
    """Compulsory traffic of one SpMV, x read from memory once.

    With ``block_size`` b the matrix has ``nnz`` scalar entries in
    ``nnz / b^2`` blocks, so only one column index per block is read.
    """
    nblocks = nnz // (block_size * block_size) if block_size > 1 else nnz
    nbrows = n_rows // block_size if block_size > 1 else n_rows
    matrix = nnz * value_bytes
    index = nblocks * index_bytes + (nbrows + 1) * index_bytes
    vector = n_rows * value_bytes * 3           # x once, y read+write
    return SpMVTraffic(matrix_bytes=matrix, index_bytes=index,
                       vector_bytes=vector)
