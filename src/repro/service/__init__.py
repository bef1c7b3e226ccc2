"""Solver-as-a-service: warm caches + request scheduling.

The paper's sustained-throughput lesson is that setup — partitions,
orderings, symbolic factorisations — must be amortised across many
solves.  This package provides the three pieces that turn the one-shot
:class:`repro.core.driver.NKSSolver` into a long-running service:

* :mod:`repro.service.hashing` — content hashes (sha1 over mesh,
  matrix pattern, config) that name reusable structures, generalising
  the proc pool's matrix-rebroadcast token;
* :mod:`repro.service.cache` — the namespaced structure cache with
  hit/miss/byte telemetry (partition, gather, ilu_symbolic);
* :mod:`repro.service.warm` — harvest-after-solve / seed-before-solve
  of warm solver state (layouts, gather structs, preconditioners,
  worker pools);
* :mod:`repro.service.service` — the :class:`SolverService` itself:
  bounded admission queue, per-request deadlines, compatibility-keyed
  batching onto persistent warm workers, per-request trace spans.
"""

from repro.service.hashing import (array_hash, config_key, mesh_hash,
                                   pattern_hash, topology_hash)
from repro.service.cache import CacheStats, ServiceCache
from repro.service.warm import WarmContext, harvest_context, seed_solver
from repro.service.service import (ServiceStats, SolveRequest, SolveTicket,
                                   SolverService)

__all__ = [
    "array_hash",
    "config_key",
    "mesh_hash",
    "pattern_hash",
    "topology_hash",
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
