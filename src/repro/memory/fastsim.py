"""Offline, vectorized exact-LRU cache/TLB simulation.

:class:`repro.memory.cache.CacheSim` walks one Python loop iteration
per reference (~1 microsecond each), so the multi-million-reference
traces of the Fig. 3 / Table 1 experiments were dominated by simulator
overhead.  This module computes **bitwise-identical** counters and
miss masks array-at-a-time, with no per-reference Python state.

Three cooperating algorithms, selected by geometry:

* **direct-mapped** (associativity 1): group references by set index
  with one stable sort; after collapsing consecutive same-line
  references inside each set's subsequence, *every* surviving
  reference is a miss (a direct-mapped hit is exactly "the previous
  reference to this set touched the same line").
* **2-way LRU** (the R10000's L1/L2): in the collapsed per-set
  subsequence a reference hits iff exactly one other reference
  separates it from the previous occurrence of its line — a single
  integer-gap comparison, no stack bookkeeping.
* **general A-way / fully associative LRU** (the TLB path): exact
  stack distances from last-occurrence positions.  With ``p(t)`` the
  previous occurrence of reference ``t``'s line, the distance is::

      dist(t) = (t - p(t) - 1) - #{pairs (p(u), u) nested in (p(t), t)}

  because every repetition inside the window cancels one position.
  The nested-pair count is a 2-D dominance count over the set of
  (last-occurrence, occurrence) pairs — the batched equivalent of the
  classic Fenwick/BIT distinct-count — evaluated in rank space by a
  bucket-grid prefix sum (:func:`_prefix_smaller_counts`).  Only
  windows spanning at least ``A`` other references can reach distance
  ``>= A``, so the dominance query runs on that (typically tiny)
  subset while the grid build stays one ``bincount`` over all pairs.
  A reference misses iff it is a first access or ``dist >= A``
  (Mattson et al.'s inclusion property).

All three run on the *set-grouped* trace: a stable sort by set index
concatenates the per-set subsequences, and because each subsequence is
a contiguous block, position differences and nested-pair counts never
leak across sets — every set is processed in the same shared passes.

Trace preprocessing collapses consecutive same-line references (both
in trace order and within each set's subsequence).  A collapsed-away
reference repeats its set's most-recently-used line, so it is a
guaranteed hit for any LRU cache of any associativity: miss counts
are unchanged (proved against the oracle in
``tests/test_memory_fastsim.py``), and for the streaming SpMV/flux
traces the reduction is large (word-sized steps through cache lines,
page-sized runs through the TLB).

:class:`FastCacheSim` mirrors the :class:`CacheSim` API, including
counter accumulation and LRU state carry-over across ``access()``
batches: the resident lines after each batch are extracted (the top-A
last occurrences per set) and replayed, LRU to MRU, as a prefix of the
next batch — reconstructing the exact warm stacks.
"""

from __future__ import annotations

import numpy as np

from repro.memory.cache import CacheConfig, CacheCounters
from repro.sparse.segsum import concat_ranges, run_starts

__all__ = ["FastCacheSim", "simulate_trace"]

_INT32_MAX = np.iinfo(np.int32).max

# General A-way batches are cut into chunks of this many collapsed
# references (see FastCacheSim.access): the dominance count is
# superlinear in the window count, so bounding the chunk bounds both
# its bucket grid and the edge-scan work, while the exact warm-stack
# replay between chunks keeps the result bitwise identical.
_CHUNK = 1 << 16


# ----------------------------------------------------------------------
# core combinatorial kernels
# ----------------------------------------------------------------------

def _stable_argsort(x: np.ndarray) -> np.ndarray:
    """Stable argsort, downcast to feed numpy's radix path fewer bytes.

    numpy's stable sort for integers is a radix sort whose cost scales
    with the key width; line numbers and trace positions comfortably
    fit 32 bits, roughly halving the dominant sort time.
    """
    if x.size and x.itemsize > 2:
        mn, mx = int(x.min()), int(x.max())
        if 0 <= mn and mx < (1 << 16):
            x = x.astype(np.uint16)
        elif x.itemsize > 4 and -_INT32_MAX <= mn and mx <= _INT32_MAX:
            x = x.astype(np.int32)
    return np.argsort(x, kind="stable")


def _prev_occurrence(x: np.ndarray) -> np.ndarray:
    """Index of the previous occurrence of ``x[i]``'s value (-1 if first).

    One stable integer sort groups equal values while preserving
    position order, so each run's predecessor links fall out of a
    shifted comparison.
    """
    order = _stable_argsort(x)
    xs = x[order]
    prev = np.full(x.size, -1, dtype=np.int64)
    if x.size > 1:
        same = xs[1:] == xs[:-1]
        prev[order[1:][same]] = order[:-1][same]
    return prev


def _edge_count(values: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                bounds: np.ndarray) -> np.ndarray:
    """Per query ``k``: ``#{i in [starts[k], stops[k]) : values[i] < bounds[k]}``."""
    counts = stops - starts
    flat = concat_ranges(starts, counts)
    seg = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    hit = values[flat] < np.repeat(bounds, counts)
    return np.bincount(seg[hit], minlength=starts.size)


def _prefix_smaller_counts(keys: np.ndarray, qpos: np.ndarray,
                           qrank: np.ndarray) -> np.ndarray:
    """Batched 2-D dominance count over a permutation.

    ``keys`` is a permutation of ``0..m-1``; for each query ``k`` the
    result is ``#{i < qpos[k] : keys[i] < qrank[k]}``.  One
    ``bincount`` builds a bucket-grid histogram whose 2-D prefix sum
    answers the full-bucket part of every query; the two partial
    buckets per query (a position slice and, via the inverse
    permutation, a key-value slice) are scanned exactly.  The bucket
    width balances the ``(m/w)^2`` grid against the ``O(q*w)`` edge
    scans, so sparse query sets (long-window LRU references) cost far
    less than an inversion count over all ``m`` pairs.
    """
    m = keys.size
    q = qpos.size
    if m == 0 or q == 0:
        return np.zeros(q, dtype=np.int64)
    w = int(round((3.0 * m * m / q) ** (1.0 / 3.0)))
    w = max(1, min(w, m), -(-m // 4096))   # cap the grid at 4096^2
    nb = -(-m // w)
    pos_bucket = np.arange(m, dtype=np.int64) // w
    grid = np.bincount(pos_bucket * nb + keys // w, minlength=nb * nb)
    pref = grid.reshape(nb, nb).cumsum(axis=0).cumsum(axis=1)
    u = qpos // w          # full position-buckets strictly below qpos
    v = qrank // w         # full key-buckets strictly below qrank
    out = np.zeros(q, dtype=np.int64)
    both = (u > 0) & (v > 0)
    out[both] = pref[u[both] - 1, v[both] - 1]
    # Partial position bucket: i in [u*w, qpos), any key < qrank.
    out += _edge_count(keys, u * w, qpos, qrank)
    # Partial key bucket: key in [v*w, qrank), restricted to the full
    # position prefix i < u*w (the slab above was already scanned).
    inv = np.empty(m, dtype=np.int64)
    inv[keys] = np.arange(m, dtype=np.int64)
    out += _edge_count(inv, v * w, qrank, u * w)
    return out


# ----------------------------------------------------------------------
# trace-level simulation
# ----------------------------------------------------------------------

def _lru_miss_positions(clines: np.ndarray, nsets: int, assoc: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Exact LRU simulation of a cold cache over a collapsed line trace.

    ``clines`` must already be free of adjacent same-line repeats
    (:class:`FastCacheSim` collapses before calling — the dropped
    references are guaranteed hits).  Returns ``(miss_positions,
    stack)``: the indices into ``clines`` that miss, and the resident
    lines afterwards (LRU to MRU within each set, sets concatenated in
    ascending order).
    """
    if clines.size == 0:
        return np.empty(0, dtype=np.int64), clines
    pos = None          # grouped position -> trace position (None = identity)
    ss = None
    if nsets > 1:
        # Stable sort by set index concatenates the per-set
        # subsequences in trace order; equal lines always share a set,
        # so a second adjacent collapse inside the grouped array
        # removes the remaining guaranteed hits.  Set indices fit a
        # 16-bit radix key for every realistic geometry.
        sets = clines & clines.dtype.type(nsets - 1)
        if nsets <= (1 << 16):
            sets = sets.astype(np.uint16)
        pos = np.argsort(sets, kind="stable")
        clines = clines[pos]
        ss = sets[pos]
        keep2 = run_starts(clines)
        if not keep2.all():
            clines = clines[keep2]
            pos = pos[keep2]
            ss = ss[keep2]
    m = clines.size
    if assoc <= 2:
        # No previous-occurrence links needed.  Direct-mapped: a hit is
        # "previous reference to this set was the same line" — exactly
        # what collapsing removed, so every survivor misses.  2-way:
        # adjacent survivors differ, so a hit is exactly "two back in
        # the same set's segment is the same line".
        miss = np.ones(m, dtype=bool)
        if assoc == 2 and m > 2:
            same = clines[2:] == clines[:-2]
            if ss is not None:
                same &= ss[2:] == ss[:-2]    # grouped: equal => same seg
            miss[2:] = ~same
        # Adjacent survivors are distinct lines, so each segment's last
        # min(count, assoc) entries are its residents, already in
        # ascending (LRU -> MRU) position order.
        if ss is not None:
            counts = np.bincount(ss, minlength=nsets)
            take = np.minimum(counts, assoc)
            cand = concat_ranges(np.cumsum(counts) - take, take)
        else:
            cand = np.arange(max(m - assoc, 0), m, dtype=np.int64)
        miss_pos = np.flatnonzero(miss) if pos is None else pos[miss]
        return miss_pos, clines[cand]
    prev = _prev_occurrence(clines)
    miss = prev < 0                              # compulsory
    hot = np.flatnonzero(prev >= 0)
    has_next = np.zeros(m, dtype=bool)
    if hot.size:
        p = prev[hot]
        has_next[p] = True
        length = hot - p - 1           # other references in the window
        # Windows spanning < assoc references cannot reach stack
        # distance >= assoc: only the rest need the dominance count.
        maybe = np.flatnonzero(length >= assoc)
        if maybe.size:
            # Pairs (p(t), t) listed in t order: the rank of a pair by
            # right endpoint is its list index, so ordering by left
            # endpoint turns "pairs nested in (p, t)" into
            #   #{j > p, n < t} = rank(t) - #{j <= p, n < t}
            # with the second term a prefix dominance count.  No sort
            # is needed for the left-endpoint order: the sorted left
            # endpoints are exactly the positions with a successor, in
            # ascending order, and the successor links recover each
            # pair's right-endpoint rank.
            itype = np.int64 if m > _INT32_MAX else np.int32
            hotrank = np.empty(m, dtype=itype)
            hotrank[hot] = np.arange(hot.size, dtype=itype)
            nxt = np.empty(m, dtype=itype)
            nxt[p] = hot.astype(itype, copy=False)
            p_sorted = np.flatnonzero(has_next)
            order_j = hotrank[nxt[p_sorted]]
            qpos = np.searchsorted(p_sorted, p[maybe], side="right")
            nested = maybe - _prefix_smaller_counts(order_j, qpos, maybe)
            miss[hot[maybe]] = (length[maybe] - nested) >= assoc
    # Resident lines afterwards: per set, the `assoc` most recent last
    # occurrences (positions with no successor), kept in ascending
    # (LRU -> MRU) position order.
    cand = np.flatnonzero(~has_next)
    if ss is not None:
        counts = np.bincount(ss[cand], minlength=nsets)
        ends = np.repeat(np.cumsum(counts), counts)
        from_end = ends - 1 - np.arange(cand.size, dtype=np.int64)
        cand = cand[from_end < assoc]
    elif cand.size > assoc:
        cand = cand[cand.size - assoc:]
    miss_pos = np.flatnonzero(miss) if pos is None else pos[miss]
    return miss_pos, clines[cand]


class FastCacheSim:
    """Vectorised drop-in for :class:`CacheSim`; identical counters."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.accesses = 0
        self.misses = 0
        # Resident lines, LRU -> MRU within each set; replayed as a
        # prefix to warm-start the next batch.
        self._stack = np.empty(0, dtype=np.int64)

    def reset(self) -> None:
        self.accesses = 0
        self.misses = 0
        self._stack = np.empty(0, dtype=np.int64)

    def access(self, addresses: np.ndarray,
               record_misses: bool = False) -> np.ndarray | None:
        """Run a batch of byte addresses through the cache.

        With ``record_misses`` the boolean miss mask is returned (used
        to filter the trace for the next cache level).
        """
        lb = self.config.line_bytes
        addresses = np.asarray(addresses, dtype=np.int64)
        if lb & (lb - 1) == 0:
            lines = addresses >> (lb.bit_length() - 1)   # same floor as //
        else:
            lines = addresses // lb
        if lines.size == 0:
            return np.zeros(0, dtype=bool) if record_misses else None
        # Collapse consecutive same-line references (guaranteed hits)
        # before splicing in the warm stack, so all downstream passes
        # run on the smaller array.
        keep = run_starts(lines)
        npre = self._stack.size
        if npre and lines[0] == self._stack[-1]:
            keep[0] = False      # re-touch of that set's warm MRU line
        cidx = np.flatnonzero(keep)
        clines = lines[cidx]
        if clines.itemsize > 4 and clines.size:
            mn, mx = int(clines.min()), int(clines.max())
            if -_INT32_MAX <= mn and mx <= _INT32_MAX:
                clines = clines.astype(np.int32)   # halves gather cost
        nsets = self.config.nsets
        assoc = self.config.associativity
        # The general A-way path's dominance count is superlinear in the
        # collapsed batch size, so huge batches (the fully associative
        # TLB on multi-million-reference traces) are cut into bounded
        # chunks, each warm-started from the previous chunk's residents
        # — the same exact stack replay used between access() calls, so
        # the counters are unchanged.  The stack itself is bounded by
        # nsets * assoc; chunking only pays when that is small next to
        # the chunk, and assoc <= 2 never needs the dominance count.
        if assoc > 2 and clines.size > _CHUNK and nsets * assoc * 4 <= _CHUNK:
            step = _CHUNK
        else:
            step = max(clines.size, 1)
        parts = [np.empty(0, dtype=np.int64)]
        for start in range(0, clines.size, step):
            chunk = clines[start:start + step]
            npre = self._stack.size
            trace = np.concatenate([self._stack, chunk]) if npre else chunk
            miss_pos, self._stack = _lru_miss_positions(trace, nsets, assoc)
            if npre:
                miss_pos = miss_pos[miss_pos >= npre] - npre
            parts.append(cidx[start + miss_pos])
        batch_miss = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self.accesses += lines.size
        self.misses += batch_miss.size
        if record_misses:
            mask = np.zeros(lines.size, dtype=bool)
            mask[batch_miss] = True
            return mask
        return None

    @property
    def counters(self) -> CacheCounters:
        return CacheCounters(accesses=self.accesses, misses=self.misses)


def simulate_trace(addresses: np.ndarray,
                   config: CacheConfig) -> CacheCounters:
    """One-shot vectorised simulation of a full trace, cold cache."""
    sim = FastCacheSim(config)
    sim.access(addresses)
    return sim.counters
