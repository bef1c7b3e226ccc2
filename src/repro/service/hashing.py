"""Content hashes that name reusable solver structures.

The proc pool already avoids rebroadcasting an unchanged Jacobian by
comparing a sha1 token of its value arrays; these helpers generalise
that token into a naming scheme for every structure the service
caches:

* ``topology_hash(mesh)`` — connectivity only (edges + vertex count).
  Partitions, SPMD layouts, gather structures, and symbolic ILU all
  depend on the *graph*, not the coordinates, so a jittered copy of a
  mesh (same wing, perturbed points) maps to the same topology key and
  hits every structural namespace.
* ``mesh_hash(mesh)`` — topology **and** coordinates.  Edge normals
  and numeric factors depend on the geometry, which is what tells a
  jittered copy from its original.
* ``pattern_hash(indptr, indices)`` — a matrix sparsity pattern.
* ``config_key(obj)`` — a canonical sha1 over any dataclass tree
  (``SolverConfig`` and friends), so "compatible configuration" is a
  string comparison.

All keys are hex sha1 strings; collisions are not a practical concern
at cache sizes of interest, and every cached structure is *also*
validated at use time (the gather cache compares patterns, the
preconditioner refresh asserts sparsity), so a collision degrades to a
recompute, never to wrong numbers.
"""

from __future__ import annotations

import dataclasses
import hashlib
from enum import Enum

import numpy as np

__all__ = ["array_hash", "topology_hash", "mesh_hash", "pattern_hash",
           "config_key", "canonical"]


def _sha1() -> "hashlib._Hash":
    return hashlib.sha1()


def array_hash(arr: np.ndarray) -> str:
    """sha1 over dtype + shape + C-order bytes of one array."""
    a = np.ascontiguousarray(arr)
    h = _sha1()
    h.update(a.dtype.str.encode("ascii"))
    h.update(str(a.shape).encode("ascii"))
    h.update(a.tobytes())
    return h.hexdigest()


def _digest_parts(*parts: str) -> str:
    h = _sha1()
    for p in parts:
        h.update(p.encode("ascii"))
        h.update(b"|")
    return h.hexdigest()


def topology_hash(mesh) -> str:
    """Connectivity-only key: edges + vertex count (no coordinates)."""
    return _digest_parts("topo", str(int(mesh.num_vertices)),
                         array_hash(mesh.edges))


def mesh_hash(mesh) -> str:
    """Full content key: connectivity and coordinates."""
    return _digest_parts("mesh", topology_hash(mesh),
                         array_hash(mesh.coords))


def pattern_hash(indptr: np.ndarray, indices: np.ndarray) -> str:
    """Sparsity-pattern key of a CSR/BSR structure."""
    return _digest_parts("pattern", array_hash(indptr),
                         array_hash(indices))


def canonical(obj) -> str:
    """Deterministic string form of a config-like object tree.

    Handles dataclasses, enums, numpy dtypes/scalar types and plain
    containers; anything else must have a stable ``repr``.  Field order follows the dataclass definition, so
    two equal configs canonicalise identically.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({fields})"
    if isinstance(obj, Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, np.dtype):
        return f"dtype:{obj.str}"
    if isinstance(obj, type):
        return f"type:{np.dtype(obj).str}" if issubclass(obj, np.generic) \
            else f"type:{obj.__name__}"
    if isinstance(obj, dict):
        items = ",".join(f"{canonical(k)}:{canonical(v)}"
                         for k, v in sorted(obj.items(),
                                            key=lambda kv: repr(kv[0])))
        return f"{{{items}}}"
    if isinstance(obj, (list, tuple)):
        return f"[{','.join(canonical(v) for v in obj)}]"
    if isinstance(obj, float):
        return repr(obj)
    return repr(obj)


def config_key(obj) -> str:
    """sha1 of :func:`canonical` — the compatibility key of a config."""
    return _digest_parts("config", canonical(obj))
