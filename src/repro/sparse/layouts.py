"""Data layouts for multicomponent PDE Jacobians (paper Secs. 2.1.1-2.1.2).

Given the vertex graph of a mesh and b unknowns per vertex, the same
Jacobian can be stored three ways:

* **BSR / interlaced + blocked** — unknowns of a vertex adjacent in
  memory, dense b-by-b blocks (PETSc BAIJ).  The paper's best layout.
* **interlaced CSR** — same unknown ordering, but point-sparse storage
  (PETSc AIJ on an interlaced ordering).  Interlacing without blocking.
* **field-split ("noninterlaced") CSR** — unknown ``f`` of all vertices
  first, then unknown ``f+1``...  This is the vector-machine layout;
  the bandwidth of the matrix becomes ~N (paper Sec. 2.1.1), which is
  what the conflict-miss bound Eq. 1 penalises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.bsr import BSRMatrix
from repro.sparse.csr import CSRMatrix

__all__ = [
    "BlockStructure",
    "block_structure_from_edges",
    "assemble_bsr",
    "interlaced_csr_from_bsr",
    "field_split_csr_from_bsr",
    "field_split_permutation",
]


@dataclass
class BlockStructure:
    """Static block-sparsity pattern of a vertex-centred PDE Jacobian.

    One block row per vertex; pattern = diagonal block + one block per
    incident edge in each direction.  Precomputes, for each directed
    contribution (diagonal, edge i->j, edge j->i), the slot into the
    BSR data array, so per-Newton-step assembly is a pure scatter.
    """

    indptr: np.ndarray
    indices: np.ndarray
    diag_slots: np.ndarray        # (n,)    slot of block (i, i)
    edge_ij_slots: np.ndarray     # (ne,)   slot of block (i, j) for edge (i, j)
    edge_ji_slots: np.ndarray     # (ne,)   slot of block (j, i)
    num_vertices: int

    @property
    def nnzb(self) -> int:
        return int(self.indices.size)


def block_structure_from_edges(num_vertices: int, edges: np.ndarray) -> BlockStructure:
    """Build the block pattern of an edge-based stencil."""
    edges = np.asarray(edges, dtype=np.int64)
    rows = np.concatenate([np.arange(num_vertices, dtype=np.int64),
                           edges[:, 0], edges[:, 1]])
    cols = np.concatenate([np.arange(num_vertices, dtype=np.int64),
                           edges[:, 1], edges[:, 0]])
    key = rows * np.int64(num_vertices) + cols
    order = np.argsort(key)
    sorted_key = key[order]
    if np.any(np.diff(sorted_key) == 0):
        raise ValueError("duplicate edges in edge list")
    slot_of = np.empty(key.size, dtype=np.int64)
    slot_of[order] = np.arange(key.size, dtype=np.int64)
    urows = (sorted_key // num_vertices).astype(np.int64)
    ucols = (sorted_key % num_vertices).astype(np.int64)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    # One-shot pattern construction from edges.
    np.add.at(indptr, urows + 1, 1)
    np.cumsum(indptr, out=indptr)
    n = num_vertices
    ne = edges.shape[0]
    return BlockStructure(
        indptr=indptr,
        indices=ucols,
        diag_slots=slot_of[:n],
        edge_ij_slots=slot_of[n : n + ne],
        edge_ji_slots=slot_of[n + ne :],
        num_vertices=num_vertices,
    )


def assemble_bsr(structure: BlockStructure, bs: int,
                 diag: np.ndarray, off_ij: np.ndarray,
                 off_ji: np.ndarray, engine: str = "numpy") -> BSRMatrix:
    """Assemble a BSR matrix from per-vertex diagonal blocks and
    per-edge off-diagonal blocks (both directions); the matrix carries
    ``engine`` for its matvecs.
    """
    data = np.zeros((structure.nnzb, bs, bs), dtype=np.float64)
    data[structure.diag_slots] = diag
    data[structure.edge_ij_slots] = off_ij
    data[structure.edge_ji_slots] = off_ji
    return BSRMatrix(indptr=structure.indptr, indices=structure.indices,
                     data=data, nbcols=structure.num_vertices, engine=engine)


def interlaced_csr_from_bsr(a: BSRMatrix) -> CSRMatrix:
    """Point CSR in the interlaced unknown ordering (same numbers as BSR,
    point-sparse storage — 'interlacing without blocking')."""
    return a.to_csr()


def field_split_permutation(num_vertices: int, bs: int) -> np.ndarray:
    """Permutation mapping field-split index -> interlaced index.

    Field-split unknown ``f * n + v`` equals interlaced unknown
    ``v * bs + f``; returns ``perm`` with ``perm[new] = old`` for use
    with :meth:`CSRMatrix.permuted`.
    """
    f, v = np.meshgrid(np.arange(bs, dtype=np.int64),
                       np.arange(num_vertices, dtype=np.int64), indexing="ij")
    return (v * bs + f).ravel()


def field_split_csr_from_bsr(a: BSRMatrix) -> CSRMatrix:
    """Point CSR in the noninterlaced (field-major) unknown ordering.

    The resulting matrix couples unknown planes that are ``n`` apart,
    giving the ~N bandwidth the paper's Eq. 1 analyses.
    """
    return a.to_csr().permuted(field_split_permutation(a.nbrows, a.bs))
