"""Synthetic unstructured tetrahedral mesh generators.

We do not have the NASA M6-wing grids the paper ran on, so these
generators produce tet meshes with the same structural character:
3-D vertex connectivity (~14 edges/vertex after subdivision), gradable
spacing (clustering toward a "wing" surface), and optionally scrambled
vertex labels to emulate the locality-hostile orderings the original
vector-tuned FUN3D started from.

The core construction is the Kuhn (Freudenthal) subdivision of a
structured hexahedral block into 6 tets per cube, which yields a
conforming tetrahedral mesh; interior vertices may then be jittered so
the mesh is genuinely irregular (no two dual volumes equal, irregular
edge lengths) while staying valid (positive tet volumes).
"""

from __future__ import annotations

import numpy as np

from repro.mesh.edges import edges_from_tets
from repro.mesh.mesh import Mesh

__all__ = ["box_mesh", "unit_cube_mesh", "wing_mesh", "bump_mesh",
           "shuffle_vertices"]

# The 6 Kuhn tets of the unit cube: each is the path 0 -> 7 through the
# cube corners following one permutation of the axes.  Corner ids use
# bit k for axis k (x = bit0, y = bit1, z = bit2).
_KUHN_PATHS = [
    (0, 1, 3, 7),  # x, y, z
    (0, 1, 5, 7),  # x, z, y
    (0, 2, 3, 7),  # y, x, z
    (0, 2, 6, 7),  # y, z, x
    (0, 4, 5, 7),  # z, x, y
    (0, 4, 6, 7),  # z, y, x
]


def _structured_vertices(nx: int, ny: int, nz: int) -> np.ndarray:
    """Vertex grid coordinates in [0,1]^3, index = i + nx*(j + ny*k)."""
    x = np.linspace(0.0, 1.0, nx)
    y = np.linspace(0.0, 1.0, ny)
    z = np.linspace(0.0, 1.0, nz)
    zz, yy, xx = np.meshgrid(z, y, x, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)


def _kuhn_tets(nx: int, ny: int, nz: int) -> np.ndarray:
    """All tets of the Kuhn subdivision of the (nx-1)x(ny-1)x(nz-1) block."""
    i = np.arange(nx - 1)
    j = np.arange(ny - 1)
    k = np.arange(nz - 1)
    kk, jj, ii = np.meshgrid(k, j, i, indexing="ij")
    base = (ii + nx * (jj + ny * kk)).ravel()
    # Corner offsets: bit0 -> +1 (x), bit1 -> +nx (y), bit2 -> +nx*ny (z).
    strides = np.array([1, nx, nx * ny], dtype=np.int64)

    def corner(c: int) -> np.ndarray:
        off = sum(strides[b] for b in range(3) if (c >> b) & 1)
        return base + off

    corners = {c: corner(c) for c in {v for path in _KUHN_PATHS for v in path}}
    tets = np.empty((base.size * 6, 4), dtype=np.int64)
    for t, path in enumerate(_KUHN_PATHS):
        for v, c in enumerate(path):
            tets[t::6, v] = corners[c]
    return tets


def _fix_orientation(coords: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Swap two vertices of any negatively oriented tet."""
    a = coords[tets[:, 1]] - coords[tets[:, 0]]
    b = coords[tets[:, 2]] - coords[tets[:, 0]]
    c = coords[tets[:, 3]] - coords[tets[:, 0]]
    vol6 = np.einsum("ij,ij->i", a, np.cross(b, c))
    flip = vol6 < 0
    tets = tets.copy()
    tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
    return tets


def box_mesh(nx: int, ny: int, nz: int, *, jitter: float = 0.0,
             seed: int = 0, name: str | None = None) -> Mesh:
    """Tet mesh of the unit box with ``nx*ny*nz`` vertices.

    Parameters
    ----------
    jitter:
        Relative perturbation (fraction of the local grid spacing, in
        [0, 0.49)) applied to interior vertices.  Validity is *not*
        guaranteed: the orientation fix runs after the jitter, so a
        vertex pushed through a face of one of its tets leaves that tet
        relabelled positive and the mesh overlapping itself (none seen
        up to 0.2; 2 of 42,978 tets at 0.25 on 30x20x14 — ROADMAP
        item 1, pinned by ``test_jitter_can_tangle_the_mesh``).
    """
    if min(nx, ny, nz) < 2:
        raise ValueError("need at least 2 vertices per axis")
    if not 0.0 <= jitter < 0.49:
        raise ValueError("jitter must be in [0, 0.49)")
    coords = _structured_vertices(nx, ny, nz)
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        h = np.array([1.0 / (nx - 1), 1.0 / (ny - 1), 1.0 / (nz - 1)])
        interior = np.all((coords > 1e-12) & (coords < 1 - 1e-12), axis=1)
        noise = rng.uniform(-jitter, jitter, size=(int(interior.sum()), 3)) * h
        coords = coords.copy()
        coords[interior] += noise
    tets = _fix_orientation(coords, _kuhn_tets(nx, ny, nz))
    edges = edges_from_tets(tets, coords.shape[0])
    return Mesh(coords=coords, tets=tets, edges=edges,
                name=name or f"box{nx}x{ny}x{nz}")


def unit_cube_mesh(n: int, *, jitter: float = 0.0, seed: int = 0) -> Mesh:
    """Convenience: cubic ``n**3``-vertex mesh of the unit cube."""
    return box_mesh(n, n, n, jitter=jitter, seed=seed, name=f"cube{n}")


def wing_mesh(nx: int, ny: int, nz: int, *, seed: int = 0) -> Mesh:
    """Wing-like graded mesh.

    Emulates the M6-wing grids' character: vertices cluster toward the
    wing surface (the z=0 wall over the mid-chord region) with a
    ``tanh`` grading of strength 2.5, plus chordwise clustering toward
    the leading edge (x=0.3).  Interior vertices are jittered by 0.25 of
    the grid spacing.  Connectivity is identical to the
    box mesh; only the geometry (hence dual volumes, edge areas, and
    the flow problem) is graded.
    """
    mesh = box_mesh(nx, ny, nz, jitter=0.25, seed=seed,
                    name=f"wing{nx}x{ny}x{nz}")
    stretch = 2.5
    c = mesh.coords.copy()
    # Cluster toward the wall z=0 (boundary-layer style grading):
    # spacing is smallest at z=0 and grows toward the farfield.
    c[:, 2] = 1.0 - np.tanh(stretch * (1.0 - c[:, 2])) / np.tanh(stretch)
    # Cluster chordwise toward the "leading edge" at x = 0.3.
    le = 0.3
    x = c[:, 0]
    c[:, 0] = np.where(
        x <= le,
        le * (1 - np.tanh(stretch * (le - x) / le) / np.tanh(stretch)),
        le + (1 - le) * np.tanh(stretch * (x - le) / (1 - le)) / np.tanh(stretch),
    )
    tets = _fix_orientation(c, mesh.tets)
    return Mesh(coords=c, tets=tets, edges=mesh.edges, name=mesh.name)


def shuffle_vertices(mesh: Mesh, seed: int = 0) -> Mesh:
    """Randomly relabel vertices.

    Produces the locality-hostile labelling used as the experimental
    baseline: a random labelling has edge spans ~n/3, so every stencil
    touches distant memory — the situation RCM reordering repairs.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.num_vertices)
    return mesh.permuted(perm, name=mesh.name + "+shuffled")


def _bump_floor(x: np.ndarray) -> np.ndarray:
    """Floor height of the bump channel at chordwise ``x``: ``0.1 *
    cos^2`` over a window of width 0.4 around x = 0.5, else zero."""
    xi = (x - 0.5) / (0.4 / 2.0)
    return np.where(np.abs(xi) < 1.0, 0.10 * np.cos(np.pi * xi / 2.0) ** 2,
                    0.0)


def bump_mesh(nx: int, ny: int, nz: int) -> Mesh:
    """Channel with a cosine bump on the floor.

    The classic transonic test geometry: flow accelerates over the
    bump, and above a critical Mach number a shock forms on the lee
    side.  The floor is raised to ``_bump_floor`` (spanwise uniform),
    with the deformation decaying linearly to zero at the top wall so
    the mesh stays valid.  Interior vertices are jittered by 0.15 of
    the grid spacing.
    """
    mesh = box_mesh(nx, ny, nz, jitter=0.15,
                    name=f"bump{nx}x{ny}x{nz}")
    c = mesh.coords.copy()
    c[:, 2] = c[:, 2] + _bump_floor(c[:, 0]) * (1.0 - c[:, 2])
    tets = _fix_orientation(c, mesh.tets)
    return Mesh(coords=c, tets=tets, edges=mesh.edges, name=mesh.name)
