"""TLB model: a fully associative LRU cache over memory pages.

The R10000 TLB holds 64 entries of (typically) 16 KB pages; the paper
found ~70% of the untuned code's time went to TLB miss service, and
Fig. 3 shows edge reordering cutting TLB misses by two orders of
magnitude.  A cache simulator with page-sized lines and full
associativity models exactly the event the R10000 counter counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import CacheConfig
from repro.memory.fastsim import FastCacheSim

__all__ = ["TLBConfig", "tlb_sim", "tlb_cache_config"]


@dataclass(frozen=True)
class TLBConfig:
    name: str
    entries: int
    page_bytes: int

    @property
    def reach_bytes(self) -> int:
        """Total memory covered by a full TLB (its 'capacity')."""
        return self.entries * self.page_bytes


def tlb_cache_config(cfg: TLBConfig) -> CacheConfig:
    return CacheConfig(name=cfg.name, capacity_bytes=cfg.reach_bytes,
                       line_bytes=cfg.page_bytes, associativity=cfg.entries)


def tlb_sim(cfg: TLBConfig) -> FastCacheSim:
    """A fresh TLB simulator: a cache sim with one fully-associative
    set (its oracle is ``CacheSim(tlb_cache_config(cfg))``)."""
    return FastCacheSim(tlb_cache_config(cfg))
