"""Cache and TLB simulator semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import CacheConfig, CacheSim, FastCacheSim, simulate_trace
from repro.memory.tlb import TLBConfig, tlb_cache_config

# Every semantics test runs against both the per-reference oracle and
# the vectorised simulator the experiments run (see
# tests/test_memory_fastsim.py for the direct equivalence suite).
SIMULATORS = {"ref": CacheSim, "fast": FastCacheSim}
ENGINES = list(SIMULATORS)


def make_sim(config, engine):
    return SIMULATORS[engine](config)


def simulate(addrs, config, engine):
    sim = make_sim(config, engine)
    sim.access(addrs)
    return sim.counters


def cfg(capacity=256, line=32, assoc=2, name="t"):
    return CacheConfig(name, capacity, line, assoc)


class TestConfig:
    def test_nsets(self):
        c = cfg(1024, 32, 2)
        assert c.nsets == 16
        assert c.capacity_words == 128
        assert c.line_words == 4

    def test_rejects_nonpow2_sets(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 96, 32, 1)

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 100, 32, 2)


@pytest.mark.parametrize("engine", ENGINES)
class TestSemantics:
    def test_compulsory_misses_only(self, engine):
        """Sequential walk over fresh memory: one miss per line."""
        addrs = np.arange(0, 64 * 32, 8)   # 64 lines of 32B, 8B steps
        c = simulate(addrs, cfg(capacity=4096, line=32, assoc=2), engine)
        assert c.misses == 64
        assert c.accesses == addrs.size

    def test_repeat_hits_when_fits(self, engine):
        addrs = np.tile(np.arange(0, 128, 8), 10)
        c = simulate(addrs, cfg(capacity=256, line=32, assoc=2), engine)
        assert c.misses == 4   # 4 lines, compulsory only

    def test_capacity_thrash(self, engine):
        """Cyclic walk over 2x the capacity with LRU misses everything."""
        nlines = 16
        addrs = np.tile(np.arange(nlines) * 32, 5)
        c = simulate(addrs, cfg(capacity=nlines * 16, line=32,
                                assoc=nlines // 2), engine)
        assert c.misses == c.accesses

    def test_conflict_misses_direct_mapped(self, engine):
        """Two addresses mapping to the same set of a direct-mapped
        cache evict each other; 2-way associativity fixes it."""
        capacity = 256
        a, b = 0, capacity        # same set in direct-mapped
        addrs = np.array([a, b] * 50)
        dm = simulate(addrs, cfg(capacity, 32, 1), engine)
        assert dm.misses == 100
        sa = simulate(addrs, cfg(capacity, 32, 2), engine)
        assert sa.misses == 2

    def test_lru_order(self, engine):
        """LRU evicts the least recently used, not the oldest insert."""
        line = 32
        c = cfg(capacity=2 * line, line=line, assoc=2)  # one set, 2 ways
        sim = make_sim(c, engine)
        A, B, C = 0, line * 7, line * 13   # map to the same (only) set
        sim.access(np.array([A, B, A, C]))  # C evicts B (A was refreshed)
        m = sim.misses
        sim.access(np.array([A]))
        assert sim.misses == m            # A still resident
        sim.access(np.array([B]))
        assert sim.misses == m + 1        # B was the LRU victim

    def test_miss_mask_filters_for_next_level(self, engine):
        addrs = np.array([0, 0, 32, 32, 64])
        sim = make_sim(cfg(capacity=4096, line=32, assoc=2), engine)
        mask = sim.access(addrs, record_misses=True)
        assert mask.tolist() == [True, False, True, False, True]

    def test_reset(self, engine):
        sim = make_sim(cfg(), engine)
        sim.access(np.arange(0, 1024, 32))
        sim.reset()
        assert sim.accesses == 0 and sim.misses == 0

    def test_counters(self, engine):
        c = simulate(np.array([0, 0, 0, 0]), cfg(), engine)
        assert c.misses == 1
        assert c.hits == 3


class TestTLB:
    def test_tlb_is_fully_associative(self):
        t = TLBConfig("tlb", 8, 4096)
        cc = tlb_cache_config(t)
        assert cc.nsets == 1
        assert cc.associativity == 8

    def test_reach(self):
        t = TLBConfig("tlb", 64, 16384)
        assert t.reach_bytes == 1024 * 1024

    def test_cache_view_line_is_page(self):
        """A TLB simulates as a cache whose line is one page and whose
        capacity is the reach."""
        t = TLBConfig("tlb", 64, 16384)
        cc = tlb_cache_config(t)
        assert cc.line_bytes == t.page_bytes
        assert cc.capacity_bytes == t.reach_bytes

    @pytest.mark.parametrize("engine", ENGINES)
    def test_page_locality_no_misses(self, engine):
        t = make_sim(tlb_cache_config(TLBConfig("tlb", 4, 4096)), engine)
        t.access(np.arange(0, 4096, 8))   # one page
        assert t.misses == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_page_thrash(self, engine):
        t = make_sim(tlb_cache_config(TLBConfig("tlb", 4, 4096)), engine)
        pages = np.arange(8) * 4096        # 8 pages, 4 entries
        t.access(np.tile(pages, 3))
        assert t.misses == 24              # cyclic LRU thrash


@settings(deadline=None, max_examples=20)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200),
       st.sampled_from([1, 2, 4]))
def test_property_misses_bounded(addr_list, assoc):
    """Misses never exceed accesses and never undercut the number of
    distinct lines (compulsory floor)."""
    addrs = np.array(addr_list) * 8
    config = CacheConfig("p", 512, 32, assoc)
    c = simulate_trace(addrs, config)
    distinct_lines = np.unique(addrs // 32).size
    assert distinct_lines <= c.misses <= c.accesses
