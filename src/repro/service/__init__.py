"""Solver-as-a-service: a warm cache + request scheduling.

The paper's sustained-throughput lesson is that setup — partitions,
orderings, symbolic factorisations — must be amortised across many
solves.  This package provides the three pieces that turn the one-shot
:class:`repro.core.driver.NKSSolver` into a long-running service:

* :mod:`repro.service.cache` — the LRU structure cache with
  hit/miss/byte telemetry, one entry per compatibility key;
* :mod:`repro.service.warm` — the key (mesh topology + the config
  knobs that shape reusable structures) and harvest-after-solve /
  seed-before-solve of warm solver state (partition labels, layouts
  with their scatter plans and gather structures, preconditioners);
* :mod:`repro.service.service` — the :class:`SolverService` itself:
  bounded admission queue, per-request deadlines, compatibility-keyed
  batching onto warm structures, per-request trace spans.
"""

from repro.service.cache import CacheStats, ServiceCache
from repro.service.warm import WarmContext, harvest_context, seed_solver
from repro.service.service import (ServiceStats, SolveRequest, SolveTicket,
                                   SolverService)

__all__ = [
    "CacheStats",
    "ServiceCache",
    "WarmContext",
    "harvest_context",
    "seed_solver",
    "ServiceStats",
    "SolveRequest",
    "SolveTicket",
    "SolverService",
]
