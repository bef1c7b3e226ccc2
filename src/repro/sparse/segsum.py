"""Segmented sums via ``np.bincount`` — the repo's scatter-add kernel.

``np.add.at`` is the natural way to write the edge/row accumulations
of an unstructured-mesh code, but it runs through numpy's buffered
ufunc machinery and is an order of magnitude slower than
``np.bincount`` with weights, which is a tight C histogram loop.
Every hot-path scatter (SpMV row sums, triangular-solve level sums,
flux accumulation into dual volumes) funnels through here.

``bincount`` only takes 1-D weights, so multi-component accumulations
are flattened: segment ``i`` with trailing shape ``(c,)`` becomes
``c`` scalar segments ``i*c + comp``.  Callers on a truly hot path can
precompute that flattened index once (it depends only on mesh/pattern
connectivity) with :func:`flat_segment_index` and cache it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["segment_sum", "flat_segment_index", "concat_ranges",
           "run_starts"]


def run_starts(keys: np.ndarray) -> np.ndarray:
    """True at the first entry of each run of equal adjacent keys: on
    sorted keys, the first occurrence of each distinct key (``keys[mask]``
    is ``np.unique(keys)`` without its hashing or second sort)."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each start/count pair.

    The gather-index builder behind every "process these row/segment
    slices as one flat batch" kernel (triangular-solve levels, ILU
    elimination stages, per-rank SpMV rows, cache-simulator bucket
    corrections).
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    # Zero-length ranges contribute nothing but would alias the offset
    # positions below (duplicate fancy-index writes); drop them first.
    nz = counts > 0
    if not nz.all():
        starts, counts = starts[nz], counts[nz]
    out = np.ones(total, dtype=np.int64)
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    out[offsets] = starts
    out[offsets[1:]] -= starts[:-1] + counts[:-1] - 1
    return np.cumsum(out)


def flat_segment_index(index: np.ndarray, trailing: int) -> np.ndarray:
    """Flattened scatter index for per-segment vectors of size ``trailing``.

    Entry ``(m, c)`` of a ``(len(index), trailing)`` weight array maps
    to scalar segment ``index[m] * trailing + c``.  Precompute and
    cache when ``index`` is a fixed edge/row array.
    """
    index = np.asarray(index, dtype=np.int64)
    if trailing == 1:
        return index
    return (index[:, None] * np.int64(trailing)
            + np.arange(trailing, dtype=np.int64)).ravel()


def segment_sum(index: np.ndarray, weights: np.ndarray, nseg: int,
                flat_index: np.ndarray | None = None) -> np.ndarray:
    """``out[i] (+)= weights[m]`` for every ``m`` with ``index[m] == i``.

    ``weights`` may have trailing dimensions (e.g. ``(nedges, ncomp)``
    flux vectors or ``(nedges, bs, bs)`` Jacobian blocks); the result
    has shape ``(nseg, *weights.shape[1:])``.  Accumulation happens in
    float64 (bincount's native type) and is cast back to the weight
    dtype, so reduced-precision inputs keep their dtype but gain a
    wide accumulator — strictly more accurate than the in-dtype
    scatter it replaces.

    ``flat_index`` may be the cached result of
    :func:`flat_segment_index(index, prod(weights.shape[1:]))`.
    """
    w = np.asarray(weights)
    trailing = int(np.prod(w.shape[1:])) if w.ndim > 1 else 1
    if flat_index is None:
        flat_index = flat_segment_index(np.asarray(index, dtype=np.int64),
                                        trailing)
    out = np.bincount(flat_index, weights=w.reshape(-1),
                      minlength=nseg * trailing)
    if w.ndim > 1:
        out = out.reshape((nseg,) + w.shape[1:])
    return out.astype(w.dtype, copy=False)
