"""One Schwarz subdomain: index set, ILU(k) factor, scatter metadata."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.bsr import BSRMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ilu import (ILUFactorBSR, ILUFactorCSR, ILUPattern,
                              ilu_bsr, ilu_csr)

__all__ = ["SubdomainSolver"]


@dataclass
class SubdomainSolver:
    """Factorised subdomain of an Additive Schwarz preconditioner.

    ``rows`` are the global (block-)row indices of the overlapped
    subdomain, sorted ascending; ``owned`` flags which of those rows
    belong to the zero-overlap core (used by restricted ASM and by the
    communication accounting: the non-owned rows are exactly the matrix
    and vector data that must be communicated from neighbours).
    """

    rows: np.ndarray
    owned: np.ndarray
    factor: ILUFactorCSR | ILUFactorBSR
    fill_level: int

    @classmethod
    def build(cls, a: CSRMatrix | BSRMatrix, rows: np.ndarray,
              owned: np.ndarray, fill_level: int,
              storage_dtype=np.float64,
              pattern: ILUPattern | None = None,
              engine: str = "numpy") -> "SubdomainSolver":
        """Extract the overlapped submatrix of ``a`` and factor it.

        ``pattern`` is the symbolic ILU(k) pattern from a previous
        factorisation of the *same* submatrix sparsity (the Jacobian
        structure is fixed across Newton refreshes); passing it skips
        the symbolic phase (and, on the numpy tier, reuses the
        elimination schedule cached on it).
        """
        rows = np.asarray(rows, dtype=np.int64)
        sub = a.submatrix(rows)
        ilu = ilu_bsr if isinstance(a, BSRMatrix) else ilu_csr
        factor = ilu(sub, fill_level, pattern=pattern,
                     storage_dtype=storage_dtype, engine=engine)
        return cls(rows=rows, owned=np.asarray(owned, dtype=bool),
                   factor=factor, fill_level=fill_level)

    def refactor(self, a: CSRMatrix | BSRMatrix) -> "SubdomainSolver":
        """Numeric-only refactorisation for a matrix with the same
        sparsity: reuses this subdomain's rows, ownership flags, and
        symbolic pattern."""
        return self.build(a, self.rows, self.owned, self.fill_level,
                          storage_dtype=self.factor.storage_dtype,
                          pattern=self.factor.pattern,
                          engine=self.factor.engine)

    @property
    def num_rows(self) -> int:
        return int(self.rows.size)

    @property
    def num_owned(self) -> int:
        return int(self.owned.sum())

    @property
    def num_ghost(self) -> int:
        """Overlap rows: data another subdomain owns (communication)."""
        return self.num_rows - self.num_owned

    @property
    def factor_nnz(self) -> int:
        return self.factor.pattern.nnz

    def local_solve(self, r_local: np.ndarray) -> np.ndarray:
        return self.factor.solve(r_local)
