"""Fast vectorised cache engine vs the CacheSim oracle.

The contract of :mod:`repro.memory.fastsim` is *bitwise identity*:
for any trace, geometry, and batching, the fast engine's counters and
miss masks equal the per-reference :class:`CacheSim` oracle's.  These
tests check that over the three algorithm regimes (direct-mapped,
2-way, general A-way / fully associative), over batch boundaries
(warm-stack replay), and under forced chunking, plus the
consecutive-same-line collapse neutrality the preprocessing relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memory.fastsim as fastsim
from repro.memory import CacheConfig, CacheSim, MemoryHierarchy
from repro.memory.fastsim import (FastCacheSim, _prefix_smaller_counts,
                                  simulate_trace)
from repro.memory.tlb import TLBConfig, tlb_cache_config, tlb_sim

GEOMETRIES = [
    CacheConfig("dm", 1024, 32, 1),            # direct-mapped, 32 sets
    CacheConfig("2way", 1024, 32, 2),          # the R10000 L1/L2 shape
    CacheConfig("4way", 2048, 64, 4),          # general path, 8 sets
    CacheConfig("8way", 4096, 32, 8),          # general path, 16 sets
    CacheConfig("fa", 16 * 32, 32, 16),        # fully associative
]


def both(config, addrs, batches=1, seed=0):
    """Run ref and fast sims over the same batched trace; return both."""
    ref, fast = CacheSim(config), FastCacheSim(config)
    if batches > 1:
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.integers(0, addrs.size + 1, size=batches - 1))
        pieces = np.split(addrs, cuts)
    else:
        pieces = [addrs]
    for piece in pieces:
        mr = ref.access(piece, record_misses=True)
        mf = fast.access(piece, record_misses=True)
        assert np.array_equal(mr, mf), "miss masks diverge"
    return ref, fast


addr_lists = st.lists(st.integers(0, 8_000), min_size=1, max_size=300)


@settings(deadline=None, max_examples=25)
@given(addr_lists, st.sampled_from(GEOMETRIES), st.sampled_from([1, 3]))
def test_property_bitwise_identical(addr_list, config, batches):
    """Counters and masks match the oracle for every geometry regime,
    with and without warm-stack carry-over across access() batches."""
    addrs = np.array(addr_list, dtype=np.int64) * 8
    ref, fast = both(config, addrs, batches=batches)
    assert (ref.accesses, ref.misses) == (fast.accesses, fast.misses)


@settings(deadline=None, max_examples=15)
@given(addr_lists, st.integers(1, 6))
def test_property_fully_associative_tlb(addr_list, entries_log2):
    """The TLB path (one set, large associativity) matches the oracle."""
    entries = 1 << entries_log2
    tcfg = TLBConfig("tlb", entries, 256)
    addrs = np.array(addr_list, dtype=np.int64) * 64
    ref = CacheSim(tlb_cache_config(tcfg))
    fast = tlb_sim(tcfg)
    ref.access(addrs)
    fast.access(addrs)
    assert (ref.accesses, ref.misses) == (fast.accesses, fast.misses)


@settings(deadline=None, max_examples=15)
@given(addr_lists, st.sampled_from(GEOMETRIES))
def test_property_collapse_neutral(addr_list, config):
    """Dropping consecutive same-line references never changes the miss
    count: each dropped reference re-touches its set's MRU line, a
    guaranteed hit at any associativity.  Proven against the oracle."""
    addrs = np.array(addr_list, dtype=np.int64) * 8
    full = CacheSim(config)
    full.access(addrs)
    lines = addrs // config.line_bytes
    collapsed = addrs[np.r_[True, lines[1:] != lines[:-1]]]
    part = CacheSim(config)
    part.access(collapsed)
    assert part.misses == full.misses


def test_streaming_runs_collapse_and_match():
    """Word-sized walks through lines (the SpMV/flux access pattern)
    are the collapse's target workload; check identity there."""
    addrs = np.arange(0, 64 * 1024, 8, dtype=np.int64)      # streaming
    addrs = np.concatenate([addrs, addrs[::-1], addrs[::2]])
    for config in GEOMETRIES:
        ref, fast = both(config, addrs)
        assert ref.misses == fast.misses


def test_chunked_batches_identical(monkeypatch):
    """Forcing tiny chunks (the guard against the dominance count's
    superlinear cost on multi-million-reference batches) must not
    change a single counter: each chunk warm-starts from the previous
    chunk's exact resident stack."""
    rng = np.random.default_rng(7)
    addrs = rng.integers(0, 1 << 16, size=5000) * 8
    tcfg = CacheConfig("fa", 32 * 64, 64, 32)
    baseline = simulate_trace(addrs, tcfg)
    monkeypatch.setattr(fastsim, "_CHUNK", 128)
    chunked = simulate_trace(addrs, tcfg)
    assert (chunked.accesses, chunked.misses) == \
        (baseline.accesses, baseline.misses)
    ref = CacheSim(tcfg)
    ref.access(addrs)
    assert chunked.misses == ref.misses


def test_warm_stack_survives_many_batches():
    """LRU state carried across many small access() calls equals one
    big call — the stack replay is exact, not approximate."""
    rng = np.random.default_rng(3)
    addrs = rng.integers(0, 4096, size=2000) * 8
    for config in GEOMETRIES:
        one = FastCacheSim(config)
        one.access(addrs)
        many = FastCacheSim(config)
        for piece in np.array_split(addrs, 23):
            many.access(piece)
        assert (one.accesses, one.misses) == (many.accesses, many.misses)


def test_prefix_smaller_counts_vs_bruteforce():
    """The bucket-grid dominance count against the O(m*q) definition."""
    rng = np.random.default_rng(11)
    for m, q in [(1, 1), (7, 3), (100, 40), (500, 211), (2000, 5)]:
        keys = rng.permutation(m).astype(np.int64)
        qpos = rng.integers(0, m + 1, size=q).astype(np.int64)
        qrank = rng.integers(0, m + 1, size=q).astype(np.int64)
        got = _prefix_smaller_counts(keys, qpos, qrank)
        want = np.array([(keys[:p] < r).sum() for p, r in zip(qpos, qrank)],
                        dtype=np.int64)
        assert np.array_equal(got, want)


def test_hierarchy_engines_identical():
    """End-to-end: L1 + L1-miss-filtered L2 + TLB counters match
    between the fast simulators and the oracle in their place on a
    mixed trace."""
    from repro.perfmodel.machines import ORIGIN2000_R10K

    rng = np.random.default_rng(5)
    machine = ORIGIN2000_R10K.scaled_caches(256.0)
    stream = np.arange(0, 1 << 15, 8, dtype=np.int64)
    scatter = rng.integers(0, 1 << 18, size=20_000) * 8
    trace = np.concatenate([stream, scatter, stream])
    counters = {}
    for engine in ("ref", "fast"):
        h = MemoryHierarchy(machine.l1, machine.l2, machine.tlb)
        if engine == "ref":
            h.l1, h.l2 = CacheSim(machine.l1), CacheSim(machine.l2)
            h.tlb = CacheSim(tlb_cache_config(machine.tlb))
        h.run(trace)
        h.run(scatter)          # second batch exercises warm caches
        counters[engine] = h.counters.row()
    assert counters["ref"] == counters["fast"]


def test_empty_and_degenerate_batches():
    for config in GEOMETRIES:
        fast = FastCacheSim(config)
        mask = fast.access(np.empty(0, dtype=np.int64), record_misses=True)
        assert mask.size == 0 and fast.accesses == 0
        fast.access(np.zeros(10, dtype=np.int64))        # one line only
        assert (fast.accesses, fast.misses) == (10, 1)
        fast.access(np.zeros(3, dtype=np.int64))         # fully collapsed
        assert (fast.accesses, fast.misses) == (13, 1)
        fast.reset()
        assert fast.accesses == 0 and fast.misses == 0


@pytest.mark.parametrize("engine", ["ref", "fast"])
def test_miss_mask_and_counters(engine):
    sim = {"ref": CacheSim, "fast": FastCacheSim}[engine](GEOMETRIES[1])
    addrs = np.array([0, 0, 32, 32, 64], dtype=np.int64)
    mask = sim.access(addrs, record_misses=True)
    assert mask.tolist() == [True, False, True, False, True]
    c = simulate_trace(addrs, GEOMETRIES[1])
    assert (c.accesses, c.misses) == (5, 3)
