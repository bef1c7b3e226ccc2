"""Point CSR (PETSc "AIJ") matrix, implemented from scratch on numpy."""

from __future__ import annotations

# lint: kernel (CSR matvec/permutation run inside the Krylov loop)

from dataclasses import dataclass

import numpy as np

from repro import kernels as _kernels
from repro.sparse.segsum import segment_sum

__all__ = ["CSRMatrix"]


@dataclass
class CSRMatrix:
    """Compressed sparse row matrix.

    Rows are stored with column indices sorted ascending and no
    duplicate entries (enforced by the constructors).
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    ncols: int
    engine: str = "numpy"   # kernel tier for matvec (see repro.kernels)

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.data = np.ascontiguousarray(self.data)
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("inconsistent indptr")
        if self.indices.size != self.data.size:
            raise ValueError("indices/data size mismatch")

    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.indices[s:e], self.data[s:e]

    @property
    def row_of(self) -> np.ndarray:
        """Row index of every stored entry, cached (the structure is
        immutable, only ``data`` changes between Jacobian refreshes)."""
        cached = self.__dict__.get("_row_of")
        if cached is None:
            cached = np.repeat(np.arange(self.nrows, dtype=np.int64),
                               np.diff(self.indptr))
            self.__dict__["_row_of"] = cached
        return cached

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 shape: tuple[int, int]) -> "CSRMatrix":
        """Build from COO triplets; duplicates are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        nrows, ncols = shape
        key = rows * np.int64(ncols) + cols
        order = np.argsort(key, kind="stable")
        key, rows, cols, vals = key[order], rows[order], cols[order], vals[order]
        uniq, start = np.unique(key, return_index=True)
        summed = np.add.reduceat(vals, start) if vals.size else vals
        urows = (uniq // ncols).astype(np.int64)
        ucols = (uniq % ncols).astype(np.int64)
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        # lint: scatter-ok (one-shot COO->CSR indptr construction)
        np.add.at(indptr, urows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr=indptr, indices=ucols, data=summed, ncols=ncols)

    @classmethod
    def from_dense(cls, a: np.ndarray, tol: float = 0.0) -> "CSRMatrix":
        a = np.asarray(a, dtype=np.float64)
        rows, cols = np.nonzero(np.abs(a) > tol)
        return cls.from_coo(rows, cols, a[rows, cols], a.shape)

    @classmethod
    def eye(cls, n: int, value: float = 1.0) -> "CSRMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(indptr=np.arange(n + 1, dtype=np.int64), indices=idx,
                   data=np.full(n, value, dtype=np.float64), ncols=n)

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x via gather + segmented reduction (bincount handles
        empty rows, unlike reduceat)."""
        x = np.asarray(x)
        if self.engine != "numpy":
            y = _kernels.spmv_csr(self.indptr, self.indices, self.data, x,
                                  self.engine)
            if y is not None:
                return y
        prods = self.data * x[self.indices]
        y = segment_sum(self.row_of, prods, self.nrows)
        return y.astype(np.result_type(self.data, x), copy=False)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        row_of = self.row_of
        out[row_of, self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        d = np.zeros(min(self.shape), dtype=self.data.dtype)
        row_of = self.row_of
        mask = row_of == self.indices
        d[row_of[mask]] = self.data[mask]
        return d

    def transpose(self) -> "CSRMatrix":
        row_of = self.row_of
        return CSRMatrix.from_coo(self.indices, row_of, self.data,
                                  (self.ncols, self.nrows))

    def scale_rows(self, s: np.ndarray) -> "CSRMatrix":
        row_of = self.row_of
        return CSRMatrix(indptr=self.indptr, indices=self.indices,
                         data=self.data * np.asarray(s)[row_of],
                         ncols=self.ncols, engine=self.engine)

    def add_diagonal(self, d: np.ndarray) -> "CSRMatrix":
        """Return A + diag(d); requires the diagonal already structurally
        present (true for all our PDE Jacobians)."""
        row_of = self.row_of
        mask = row_of == self.indices
        if int(mask.sum()) != min(self.shape):
            raise ValueError("diagonal is not fully present structurally")
        data = self.data.copy()
        data[mask] += np.asarray(d)[row_of[mask]]
        return CSRMatrix(indptr=self.indptr, indices=self.indices,
                         data=data, ncols=self.ncols, engine=self.engine)

    def permuted(self, perm: np.ndarray) -> "CSRMatrix":
        """Symmetric permutation P A P^T with new index i = old perm[i]."""
        perm = np.asarray(perm, dtype=np.int64)
        inv = np.empty(perm.size, dtype=np.int64)
        inv[perm] = np.arange(perm.size, dtype=np.int64)
        row_of = self.row_of
        out = CSRMatrix.from_coo(inv[row_of], inv[self.indices], self.data,
                                 self.shape)
        out.engine = self.engine
        return out

    def submatrix(self, rows: np.ndarray) -> "CSRMatrix":
        """Principal submatrix on the given (sorted unique) index set."""
        rows = np.asarray(rows, dtype=np.int64)
        local = np.full(self.ncols, -1, dtype=np.int64)
        local[rows] = np.arange(rows.size, dtype=np.int64)
        row_of = self.row_of
        keep = (local[row_of] >= 0) & (local[self.indices] >= 0)
        out = CSRMatrix.from_coo(local[row_of[keep]],
                                 local[self.indices[keep]],
                                 self.data[keep],
                                 (rows.size, rows.size))
        out.engine = self.engine
        return out

    def astype(self, dtype) -> "CSRMatrix":
        return CSRMatrix(indptr=self.indptr, indices=self.indices,
                         data=self.data.astype(dtype), ncols=self.ncols,
                         engine=self.engine)

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(indptr=self.indptr.copy(), indices=self.indices.copy(),
                         data=self.data.copy(), ncols=self.ncols,
                         engine=self.engine)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)
