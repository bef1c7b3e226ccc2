"""Harvest-after-solve / seed-before-solve of warm solver structures.

The service never *predicts* what a solve will build; it harvests what
a finished solve actually built — the partition labels, the layout
with its scatter plan and SpMV gather structure, and the
preconditioner (whose subdomains carry their slot maps into the
Jacobian, the symbolic ILU patterns and, on the numpy tier, their
elimination and level schedules) — and seeds
the next compatible request with them.  The structures validate
themselves at use time: the gather structure and the preconditioner
both compare the matrix's sparsity pattern with the one they were
built on (object identity, then ``np.array_equal``) and rebuild on a
mismatch, so a stale seed degrades to a recompute, never to wrong
numbers.

Key discipline
--------------
One entry per :func:`warm_key`, which is also the service's
compatibility key: the mesh **topology** plus every config knob that
shapes a cached structure, the executor included.  A jittered mesh —
same wing graph, perturbed coordinates — hits the entry; a request
that changes any knob of the key builds its own.

Exclusive use: a seeded preconditioner/layout is mutable shared state;
callers must serialise requests that share a key (the service holds a
per-key lock around seed -> solve -> harvest).  Because the lock and
the entry share one key, two requests that run at the same time are
never seeded with the same object.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["WarmContext", "topology_hash", "warm_key", "seed_solver",
           "harvest_context"]


@dataclass
class WarmContext:
    """What one seeded solve carries: the solver, its cache key and
    whether the key's entry was there at seed time."""

    solver: object                 # NKSSolver
    key: tuple
    seeded: bool


def topology_hash(mesh) -> str:
    """Connectivity-only key: vertex count + edges (no coordinates).

    Partitions, SPMD layouts, gather structures and symbolic ILU all
    depend on the *graph*, not the coordinates, so a jittered copy of
    a mesh maps to the same key."""
    edges = np.ascontiguousarray(mesh.edges)
    h = hashlib.sha1(f"{int(mesh.num_vertices)}|{edges.dtype.str}|"
                     f"{edges.shape}|".encode("ascii"))
    h.update(edges.tobytes())
    return h.hexdigest()


def warm_key(mesh, config) -> tuple:
    """The cache and compatibility key of (mesh topology, config).

    It folds in every knob that shapes a cached structure: the
    partition (``nparts``, ``seed``), the subdomain factors
    (overlap/fill/variant, the precision policy, and the engine, which
    decides whether schedules ride them) and the ``executor``, which
    decides whether a layout exists at all.
    """
    pc = config.precond
    return (topology_hash(mesh), pc.nparts, pc.overlap, pc.fill_level,
            pc.variant, config.policy, config.engine, config.seed,
            config.executor)


def _layout_nbytes(layout) -> int:
    """Resident bytes of a layout: its rank worlds and the scatter
    plan's index arrays, the SpMV gather structure among them."""
    total = layout.plan.nbytes
    for rd in layout.ranks:
        total += (rd.owned.nbytes + rd.ghosts.nbytes + rd.edge_ids.nbytes
                  + rd.local_edges.nbytes + rd.ghost_owner.nbytes)
    return total


def _pattern_nbytes(pc) -> int:
    """Resident bytes of the subdomain index maps (rows, owned rows,
    the apply's flat element indices, the slot map into the Jacobian
    and the submatrix pattern), of the
    ILU patterns and of whatever schedules exist beside them: a
    numpy-tier pattern carries its elimination schedule (whose level
    lists its factor shares), a compiled-tier factor has level lists
    only if a numpy trisolve ever ran on it, and usually nothing."""
    total = 0
    for sd in pc.subdomains:
        p = sd.factor.pattern
        total += sd.map_nbytes + (p.l_indptr.nbytes + p.l_indices.nbytes
                                  + p.u_indptr.nbytes + p.u_indices.nbytes)
        sch = getattr(p, "_schedule", None)
        if sch is not None:
            total += sch.a_src.nbytes + sch.a_dst.nbytes
        levels = sd.factor.solve_levels
        if levels is not None:
            total += sum(lv.nbytes for part in levels for lv in part)
    return total


def seed_solver(cache, disc, config, *,
                recorder=NULL_RECORDER) -> WarmContext:
    """Build an :class:`~repro.core.driver.NKSSolver` seeded with the
    key's cached entry, if any.

    One probe books a hit or a miss on the cache.  On a hit the cached
    labels skip the partitioner, the cached layout brings its gather
    structure along, and the harvested preconditioner is injected so its
    refresh path reuses the symbolic ILU (and, on the numpy tier, its
    schedules) numeric-only.
    """
    from repro.core.driver import NKSSolver

    key = warm_key(disc.mesh, config)
    entry = cache.get(key)
    labels, layout, pc = entry if entry is not None else (None,) * 3
    solver = NKSSolver(disc, config,
                       recorder=recorder,
                       labels=labels, layout=layout, preconditioner=pc)
    return WarmContext(solver=solver, key=key, seeded=entry is not None)


def harvest_context(cache, ctx: WarmContext) -> None:
    """Store what the finished solve built back into the cache.

    Idempotent per key: re-putting replaces the entry (the objects are
    usually the very ones a hit handed out).  On the numpy tier the
    :class:`EliminationSchedule` objects ride the subdomain patterns
    inside the harvested preconditioner, so the entry carries them and
    counts their bytes; a compiled-tier preconditioner brings the
    patterns and the subdomains' index maps alone.
    """
    solver = ctx.solver
    labels, layout, pc = solver._labels, solver._layout, solver._pc
    nbytes = labels.nbytes
    if layout is not None:
        nbytes += _layout_nbytes(layout)
    if pc is not None:
        nbytes += _pattern_nbytes(pc)
    cache.put(ctx.key, (labels, layout, pc), nbytes=nbytes)
