"""Block CSR (PETSc "BAIJ") matrix.

The paper's "structural blocking" (Sec. 2.1.2): once fields are
interlaced, the Jacobian of a b-component PDE system has dense b-by-b
blocks, and storing them as blocks removes (b*b - 1)/(b*b) of the
column-index integer loads and enables register reuse of the x block.
The SpMV cost model in perfmodel/spmv_model.py quantifies exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels as _kernels
from repro.sparse.csr import CSRMatrix
from repro.sparse.segsum import run_starts, segment_sum

__all__ = ["BSRMatrix"]


@dataclass
class BSRMatrix:
    """Block compressed sparse row matrix with square blocks.

    ``indptr``/``indices`` index *block* rows and columns; ``data`` has
    shape ``(nnzb, bs, bs)``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    nbcols: int
    engine: str = "numpy"   # kernel tier for matvec (see repro.kernels)

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.data = np.ascontiguousarray(self.data)
        if self.data.ndim != 3 or self.data.shape[1] != self.data.shape[2]:
            raise ValueError("data must be (nnzb, bs, bs)")
        if self.indptr[-1] != self.indices.size or self.indices.size != self.data.shape[0]:
            raise ValueError("inconsistent block structure")

    @property
    def bs(self) -> int:
        return int(self.data.shape[1])

    @property
    def nbrows(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nbrows * self.bs, self.nbcols * self.bs)

    @property
    def nnzb(self) -> int:
        return int(self.indices.size)

    @property
    def row_of(self) -> np.ndarray:
        """Block-row index of every stored block, cached (the block
        structure is immutable; only ``data`` changes)."""
        cached = self.__dict__.get("_row_of")
        if cached is None:
            cached = np.repeat(np.arange(self.nbrows, dtype=np.int64),
                               np.diff(self.indptr))
            self.__dict__["_row_of"] = cached
        return cached

    # ------------------------------------------------------------------
    @classmethod
    def from_block_coo(cls, brows: np.ndarray, bcols: np.ndarray,
                       blocks: np.ndarray, bshape: tuple[int, int]) -> "BSRMatrix":
        """Build from block triplets; duplicate blocks are summed."""
        brows = np.asarray(brows, dtype=np.int64)
        bcols = np.asarray(bcols, dtype=np.int64)
        blocks = np.asarray(blocks, dtype=np.float64)
        nbrows, nbcols = bshape
        bs = blocks.shape[1]
        key = brows * np.int64(nbcols) + bcols
        order = np.argsort(key, kind="stable")
        key, blocks = key[order], blocks[order]
        start = np.flatnonzero(run_starts(key))
        uniq = key[start]
        # Sum duplicates groupwise.
        summed = np.add.reduceat(blocks.reshape(blocks.shape[0], bs * bs),
                                 start, axis=0).reshape(-1, bs, bs)
        urows = (uniq // nbcols).astype(np.int64)
        ucols = (uniq % nbcols).astype(np.int64)
        indptr = np.zeros(nbrows + 1, dtype=np.int64)
        # One-shot COO->BSR indptr construction.
        np.add.at(indptr, urows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr=indptr, indices=ucols, data=summed, nbcols=nbcols)

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x with x interlaced (block-contiguous); a float32 ``x``
        on float64 blocks takes the compiled kernel too, widened exactly
        as the einsum oracle below widens it."""
        bs = self.bs
        if self.engine != "numpy":
            y = _kernels.spmv_bsr(self.indptr, self.indices, self.data,
                                  np.asarray(x).ravel(), self.nbrows,
                                  self.nbcols, self.engine)
            if y is not None:
                return y
        xb = np.asarray(x).reshape(self.nbcols, bs)
        # (nnzb, bs) products of each block with its x block.
        prods = np.einsum("kij,kj->ki", self.data, xb[self.indices])
        yb = segment_sum(self.row_of, prods, self.nbrows)
        return yb.ravel().astype(np.result_type(self.data, x), copy=False)

    def add_block_diagonal(self, dblocks: np.ndarray) -> "BSRMatrix":
        """Return A + blockdiag(dblocks); diagonal blocks must exist."""
        row_of = self.row_of
        mask = row_of == self.indices
        if int(mask.sum()) != self.nbrows:
            raise ValueError("block diagonal is not fully present")
        data = self.data.copy()
        data[mask] += np.asarray(dblocks)
        return BSRMatrix(indptr=self.indptr, indices=self.indices,
                         data=data, nbcols=self.nbcols, engine=self.engine)

    def to_csr(self) -> CSRMatrix:
        """Expand to point CSR in the interlaced (point-block) ordering."""
        bs = self.bs
        row_of = self.row_of
        # Each block (I, J) contributes points (I*bs+i, J*bs+j).
        i_loc, j_loc = np.meshgrid(np.arange(bs, dtype=np.int64),
                                 np.arange(bs, dtype=np.int64),
                                 indexing="ij")
        rows = (row_of[:, None, None] * bs + i_loc[None]).ravel()
        cols = (self.indices[:, None, None] * bs + j_loc[None]).ravel()
        return CSRMatrix.from_coo(rows, cols, self.data.ravel(),
                                  (self.nbrows * bs, self.nbcols * bs))

    def submatrix(self, brows: np.ndarray) -> "BSRMatrix":
        """Principal block submatrix on the given block-row set."""
        brows = np.asarray(brows, dtype=np.int64)
        local = np.full(self.nbcols, -1, dtype=np.int64)
        local[brows] = np.arange(brows.size, dtype=np.int64)
        row_of = self.row_of
        keep = (local[row_of] >= 0) & (local[self.indices] >= 0)
        out = BSRMatrix.from_block_coo(local[row_of[keep]],
                                       local[self.indices[keep]],
                                       self.data[keep],
                                       (brows.size, brows.size))
        out.engine = self.engine
        return out

    def permuted(self, perm: np.ndarray) -> "BSRMatrix":
        """Symmetric block permutation (new block i = old block perm[i])."""
        perm = np.asarray(perm, dtype=np.int64)
        inv = np.empty(perm.size, dtype=np.int64)
        inv[perm] = np.arange(perm.size, dtype=np.int64)
        row_of = self.row_of
        out = BSRMatrix.from_block_coo(inv[row_of], inv[self.indices],
                                       self.data, (self.nbrows, self.nbcols))
        out.engine = self.engine
        return out

    def astype(self, dtype) -> "BSRMatrix":
        return BSRMatrix(indptr=self.indptr, indices=self.indices,
                         data=self.data.astype(dtype), nbcols=self.nbcols,
                         engine=self.engine)

    def copy(self) -> "BSRMatrix":
        return BSRMatrix(indptr=self.indptr.copy(), indices=self.indices.copy(),
                         data=self.data.copy(), nbcols=self.nbcols,
                         engine=self.engine)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)
