"""One Schwarz subdomain: index set, ILU(k) factor, scatter metadata."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.sparse.bsr import BSRMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ilu import ILUFactorBSR, ILUFactorCSR, ilu_bsr, ilu_csr

__all__ = ["SubdomainSolver"]


def _principal_slots(a: CSRMatrix | BSRMatrix, rows: np.ndarray):
    """``(indptr, indices, slots)`` of the principal submatrix of ``a``
    on the sorted unique ``rows``, entries in the order
    :meth:`~repro.sparse.bsr.BSRMatrix.submatrix` stores them:
    ``a.data[slots]`` is that submatrix's data.  None when two stored
    entries of ``a`` share a position inside it (``submatrix`` sums
    them; a slot map cannot)."""
    n = rows.size
    ncols = a.nbcols if isinstance(a, BSRMatrix) else a.ncols
    local = np.full(ncols, -1, dtype=np.int64)
    local[rows] = np.arange(n, dtype=np.int64)
    lr, lc = local[a.row_of], local[a.indices]
    keep = np.flatnonzero((lr >= 0) & (lc >= 0))
    key = lr[keep] * np.int64(n) + lc[keep]
    order = np.argsort(key, kind="stable")
    key = key[order]
    if np.any(key[1:] == key[:-1]):
        return None
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return indptr, key % n, keep[order]


def _cut(a: CSRMatrix | BSRMatrix, rows: np.ndarray, indptr, indices,
         slots) -> CSRMatrix | BSRMatrix:
    """The principal submatrix of ``a`` on ``rows`` from its
    :func:`_principal_slots`: the entries read through ``slots`` — in
    float64, as the extraction converts them — bitwise
    ``a.submatrix(rows)``, which runs when ``slots`` is None."""
    if slots is None:
        return a.submatrix(rows)
    data = np.asarray(a.data[slots], dtype=np.float64)
    if isinstance(a, BSRMatrix):
        return BSRMatrix(indptr=indptr, indices=indices, data=data,
                         nbcols=rows.size, engine=a.engine)
    return CSRMatrix(indptr=indptr, indices=indices, data=data,
                     ncols=rows.size, engine=a.engine)


@dataclass
class SubdomainSolver:
    """Factorised subdomain of an Additive Schwarz preconditioner.

    ``rows`` are the global (block-)row indices of the overlapped
    subdomain, sorted ascending; ``owned_local`` are the positions in
    ``rows`` of the zero-overlap core and ``owned_rows`` the same rows
    as global indices (used by restricted ASM and by the communication
    accounting: the non-owned rows are exactly the matrix and vector
    data that must be communicated from neighbours).

    ``slots`` are the positions in ``a.data`` of the submatrix's
    entries, in submatrix order, beside its ``sub_indptr`` /
    ``sub_indices``: a refresh reads the new values through them
    instead of extracting the submatrix again.  None when ``a`` stores
    two entries at one position, and the refresh extracts.
    """

    rows: np.ndarray
    owned_local: np.ndarray
    owned_rows: np.ndarray
    factor: ILUFactorCSR | ILUFactorBSR
    fill_level: int
    sub_indptr: np.ndarray
    sub_indices: np.ndarray
    slots: np.ndarray | None

    @classmethod
    def build(cls, a: CSRMatrix | BSRMatrix, rows: np.ndarray,
              owned: np.ndarray, fill_level: int,
              storage_dtype=np.float64,
              engine: str = "numpy") -> "SubdomainSolver":
        """Cut the overlapped submatrix of ``a`` on ``rows`` (``owned``
        flags the core rows) and factor it, symbolic phase included."""
        rows = np.asarray(rows, dtype=np.int64)
        owned_local = np.flatnonzero(owned)
        sub_indptr, sub_indices, slots = (_principal_slots(a, rows)
                                          or (None, None, None))
        sub = _cut(a, rows, sub_indptr, sub_indices, slots)
        ilu = ilu_bsr if isinstance(a, BSRMatrix) else ilu_csr
        return cls(rows=rows, owned_local=owned_local,
                   owned_rows=rows[owned_local],
                   factor=ilu(sub, fill_level, storage_dtype=storage_dtype,
                              engine=engine),
                   fill_level=fill_level, sub_indptr=sub_indptr,
                   sub_indices=sub_indices, slots=slots)

    def submatrix(self, a: CSRMatrix | BSRMatrix) -> CSRMatrix | BSRMatrix:
        """This subdomain's submatrix of ``a``, which must have the
        sparsity the subdomain was built on (see :func:`_cut`)."""
        return _cut(a, self.rows, self.sub_indptr, self.sub_indices,
                    self.slots)

    def refactor(self, a: CSRMatrix | BSRMatrix) -> "SubdomainSolver":
        """Numeric-only refactorisation for a matrix with the sparsity
        the subdomain was built on: reuses its rows, slot map and
        symbolic pattern."""
        ilu = ilu_bsr if isinstance(a, BSRMatrix) else ilu_csr
        return replace(self, factor=ilu(
            self.submatrix(a), self.fill_level, pattern=self.factor.pattern,
            storage_dtype=self.factor.storage_dtype,
            engine=self.factor.engine))

    @property
    def num_rows(self) -> int:
        return int(self.rows.size)

    @property
    def num_owned(self) -> int:
        return int(self.owned_local.size)

    @property
    def num_ghost(self) -> int:
        """Overlap rows: data another subdomain owns (communication)."""
        return self.num_rows - self.num_owned

    @property
    def factor_nnz(self) -> int:
        return self.factor.pattern.nnz

    @property
    def map_nbytes(self) -> int:
        """Resident bytes of the index maps kept beside the factor."""
        return sum(arr.nbytes for arr in (
            self.rows, self.owned_local, self.owned_rows, self.sub_indptr,
            self.sub_indices, self.slots) if arr is not None)

    def local_solve(self, r_local: np.ndarray) -> np.ndarray:
        return self.factor.solve(r_local)
