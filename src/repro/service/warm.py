"""Harvest-after-solve / seed-before-solve of warm solver structures.

The service never *predicts* what a solve will build; it harvests what
a finished solve actually built — the partition labels, the layout's
SpMV gather structures, and the preconditioner (whose subdomains carry
the symbolic ILU patterns and, on the numpy tier, their elimination
and level schedules) — and seeds the next compatible request with
them.  The structures validate themselves at use time (gather structs
compare patterns, the preconditioner refresh asserts sparsity), so a
stale seed degrades to a recompute, never to wrong numbers.

Key discipline
--------------
* ``partition`` / ``gather`` / ``ilu_symbolic`` are keyed by mesh
  **topology** (+ the config knobs that shape them), so a jittered
  mesh — same wing graph, perturbed coordinates — hits all three
  structural namespaces;
* the worker pool (and the layout it is attached to) is keyed by the
  full **mesh** hash, because the forked workers hold the
  discretisation's geometry; a jittered mesh gets a fresh pool but
  warm structures.

Exclusive use: a seeded preconditioner/layout is mutable shared state;
callers must serialise requests that share a key (the service holds a
per-key lock around seed -> solve -> harvest).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.hashing import (_digest_parts, config_key, mesh_hash,
                                   topology_hash)
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["WarmContext", "structure_keys", "seed_solver",
           "harvest_context"]


@dataclass
class WarmContext:
    """What one seeded solve carries: the solver plus the cache keys
    and per-namespace hit flags of the structures it was seeded with."""

    solver: object                 # NKSSolver
    keys: dict                     # namespace -> cache key
    seeded: dict                   # namespace -> bool (hit at seed time)
    mesh_key: str
    topo_key: str


def structure_keys(mesh, config) -> dict:
    """Per-namespace cache keys for (mesh topology, solver config).

    The partition key folds in only the knobs that shape the
    partition; the preconditioner key folds in everything that shapes
    the subdomain factors (overlap/fill/variant, the precision policy,
    and the engine, which decides whether schedules ride them).
    """
    topo = topology_hash(mesh)
    pc_cfg = config.precond
    part_key = _digest_parts("partition", topo, str(pc_cfg.nparts),
                             str(pc_cfg.partitioner), str(config.seed))
    pc_key = _digest_parts(
        "precond", part_key,
        config_key((pc_cfg, config.policy, config.engine)))
    # The gather namespace stores the whole SPMDLayout (rank worlds +
    # gather-struct cache).  It is keyed like the preconditioner — not
    # just the partition — so requests that could run concurrently
    # (different compat keys) never share one mutable layout object.
    gather_key = _digest_parts("gather", pc_key)
    return {"partition": part_key, "gather": gather_key,
            "ilu_symbolic": pc_key}


def _layout_nbytes(layout) -> int:
    total = 0
    for rd in layout.ranks:
        total += (rd.owned.nbytes + rd.ghosts.nbytes + rd.edge_ids.nbytes
                  + rd.local_edges.nbytes + rd.ghost_owner.nbytes)
    for indptr, indices, structs in layout.gather_cache.values():
        total += indptr.nbytes + indices.nbytes
        total += sum(arr.nbytes for arr in structs)
    return total


def _pattern_nbytes(pc) -> int:
    """Resident bytes of the subdomain ILU patterns and of whatever
    schedules exist beside them: a numpy-tier pattern carries its
    elimination schedule (whose level lists its factor shares), a
    compiled-tier factor has level lists only if a numpy trisolve ever
    ran on it, and usually nothing."""
    total = 0
    for sd in pc.subdomains:
        p = sd.factor.pattern
        total += (p.l_indptr.nbytes + p.l_indices.nbytes
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
    """Build an :class:`~repro.core.driver.NKSSolver` seeded with every
    compatible cached structure.

    Probes all three namespaces (each probe books a hit or a miss on
    the cache): cached labels skip the partitioner, cached gather
    structs pre-fill the layout's gather cache, and a harvested
    preconditioner is injected so its refresh path reuses the symbolic
    ILU (and, on the numpy tier, its schedules) numeric-only.
    """
    from repro.core.driver import NKSSolver

    keys = structure_keys(disc.mesh, config)
    seeded = {}

    labels = cache.get("partition", keys["partition"])
    seeded["partition"] = labels is not None
    layout = cache.get("gather", keys["gather"])
    if config.executor == "local":
        layout = None               # no SPMD layout in a local solve
    seeded["gather"] = layout is not None
    pc = cache.get("ilu_symbolic", keys["ilu_symbolic"])
    seeded["ilu_symbolic"] = pc is not None

    solver = NKSSolver(disc, config,
                       recorder=recorder,
                       labels=labels, layout=layout, preconditioner=pc)
    return WarmContext(solver=solver, keys=keys, seeded=seeded,
                       mesh_key=mesh_hash(disc.mesh),
                       topo_key=topology_hash(disc.mesh))


def harvest_context(cache, ctx: WarmContext) -> None:
    """Store what the finished solve built back into the cache.

    Idempotent per key: re-putting replaces the entry (the objects are
    usually the very ones a hit handed out).  On the numpy tier the
    :class:`EliminationSchedule` objects ride the subdomain patterns
    inside the harvested preconditioner, so the ``ilu_symbolic`` entry
    carries them and counts their bytes; a compiled-tier entry holds
    the patterns alone.
    """
    solver = ctx.solver
    cache.put("partition", ctx.keys["partition"], solver._labels,
              nbytes=solver._labels.nbytes)
    layout = solver._layout
    if layout is not None:
        cache.put("gather", ctx.keys["gather"], layout,
                  nbytes=_layout_nbytes(layout))
    pc = solver._pc
    if pc is not None and pc.subdomains:
        cache.put("ilu_symbolic", ctx.keys["ilu_symbolic"], pc,
                  nbytes=_pattern_nbytes(pc))
