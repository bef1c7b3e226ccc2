"""One Schwarz subdomain: index set, ILU(k) factor, scatter metadata."""

from __future__ import annotations

from dataclasses import dataclass

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


def _cut(a: CSRMatrix, rows: np.ndarray, indptr, indices,
         slots) -> CSRMatrix:
    """The principal submatrix of the scalar ``a`` on ``rows`` from its
    :func:`_principal_slots`: the entries read through ``slots`` — in
    float64, as the extraction converts them — bitwise
    ``a.submatrix(rows)``, which runs when ``slots`` is None."""
    if slots is None:
        return a.submatrix(rows)
    return CSRMatrix(indptr=indptr, indices=indices,
                     data=np.asarray(a.data[slots], dtype=np.float64),
                     ncols=rows.size)


def _factor(a: CSRMatrix | BSRMatrix, rows: np.ndarray, indptr, indices,
            slots, **kw) -> ILUFactorCSR | ILUFactorBSR:
    """ILU of the principal submatrix of ``a`` on ``rows`` (``kw`` as
    :func:`~repro.sparse.ilu.ilu_bsr` takes them): a block submatrix is
    read through its slot map in place, a scalar one is cut first
    (:func:`_cut`), and either is extracted where ``slots`` is None.
    The factor functions are this module's globals, looked up at call
    time, so a wrapper installed on the module sees every call."""
    if not isinstance(a, BSRMatrix):
        return ilu_csr(_cut(a, rows, indptr, indices, slots), **kw)
    if slots is None:
        return ilu_bsr(a.submatrix(rows), **kw)
    return ilu_bsr(a, slots=(indptr, indices, slots), **kw)


def _elements(rows: np.ndarray, bs: int) -> np.ndarray:
    """The flat element indices of the block rows ``rows``."""
    if bs == 1:
        return rows
    return (rows[:, None] * bs + np.arange(bs, dtype=np.int64)).ravel()


@dataclass
class SubdomainSolver:
    """Factorised subdomain of an Additive Schwarz preconditioner.

    ``rows`` are the global (block-)row indices of the overlapped
    subdomain, sorted ascending; ``owned_local`` are the positions in
    ``rows`` of the zero-overlap core (used by restricted ASM and by the
    communication accounting: the non-owned rows are exactly the matrix
    and vector data that must be communicated from neighbours).

    ``slots`` are the positions in ``a.data`` of the submatrix's
    entries, in submatrix order, beside its ``sub_indptr`` /
    ``sub_indices``: the factorisation, cold or refresh, reads the
    values through them instead of extracting the submatrix — a block
    matrix's in place, with no copy.  None when ``a`` stores two
    entries at one position, and every factorisation extracts.

    ``flat`` and ``owned_flat`` are ``rows`` and the owned ones among
    them as element indices of the global vector, and
    ``owned_local_flat`` the owned elements' positions in the local
    vector: the ``bs`` entries of a block row in order (the row arrays
    themselves when ``bs`` is 1).  An apply gathers its local vector
    with one ``take`` and scatters with one flat add.
    """

    rows: np.ndarray
    owned_local: np.ndarray
    factor: ILUFactorCSR | ILUFactorBSR
    sub_indptr: np.ndarray
    sub_indices: np.ndarray
    slots: np.ndarray | None
    flat: np.ndarray
    owned_flat: np.ndarray
    owned_local_flat: np.ndarray

    @classmethod
    def build(cls, a: CSRMatrix | BSRMatrix, rows: np.ndarray,
              owned: np.ndarray, fill_level: int,
              storage_dtype=np.float64,
              engine: str = "numpy") -> "SubdomainSolver":
        """Factor the overlapped submatrix of ``a`` on ``rows``
        (``owned`` flags the core rows), symbolic phase included, read
        through its slot map (:func:`_factor`)."""
        rows = np.asarray(rows, dtype=np.int64)
        owned_local = np.flatnonzero(owned)
        sub_indptr, sub_indices, slots = (_principal_slots(a, rows)
                                          or (None, None, None))
        bs = a.bs if isinstance(a, BSRMatrix) else 1
        return cls(rows=rows, owned_local=owned_local,
                   factor=_factor(a, rows, sub_indptr, sub_indices, slots,
                                  fill_level=fill_level,
                                  storage_dtype=storage_dtype,
                                  engine=engine),
                   sub_indptr=sub_indptr,
                   sub_indices=sub_indices, slots=slots,
                   flat=_elements(rows, bs),
                   owned_flat=_elements(rows[owned_local], bs),
                   owned_local_flat=_elements(owned_local, bs))

    def refactor(self, a: CSRMatrix | BSRMatrix) -> None:
        """Numeric-only refactorisation for a matrix with the sparsity
        the subdomain was built on: reuses its rows, slot map and
        symbolic pattern, and overwrites :attr:`factor`'s arrays in
        place (an exception leaves them partly new)."""
        self.factor = _factor(a, self.rows, self.sub_indptr,
                              self.sub_indices, self.slots,
                              into=self.factor)

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
        maps = (self.rows, self.owned_local, self.sub_indptr,
                self.sub_indices, self.slots, self.flat, self.owned_flat,
                self.owned_local_flat)
        # the flat indices of a scalar matrix are the row arrays
        unique = {id(arr): arr for arr in maps if arr is not None}
        return sum(arr.nbytes for arr in unique.values())
