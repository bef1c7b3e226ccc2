"""Preallocated Krylov workspace shared across restarts and Newton steps.

The pre-PR GMRES allocated (and zeroed) a fresh ``(m+1, n)`` basis,
Hessenberg, and Givens arrays on *every* restart.  In the ΨNKS driver
that allocation churn recurs every pseudo-timestep even though the
problem size and restart length never change.  :class:`KrylovWorkspace`
owns those arrays once per solver lifetime; :func:`repro.solvers.gmres.
gmres` takes it as an optional argument and falls back to a private
instance when none is passed.

Reuse is bitwise-safe: the small arrays (H, Givens, rhs) are zeroed at
each restart, and every slot of the basis that an iteration reads has
been written earlier in the same cycle, so a reused workspace produces
iterates identical to a freshly allocated one.

The workspace also carries the solve dtype, taken from the right-hand
side: a float32 ``b`` gets a float32 basis/Hessenberg (the paper's
Sec. 3.2 precision experiments), everything else runs in float64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KrylovWorkspace", "solve_dtype"]


def solve_dtype(dtype) -> np.dtype:
    """The working precision implied by a right-hand side dtype:
    float32 is honoured, every other input promotes to float64."""
    dtype = np.dtype(dtype)
    if dtype == np.dtype(np.float32):
        return dtype
    return np.dtype(np.float64)


class KrylovWorkspace:
    """Reusable GMRES arrays: basis V, Hessenberg H, Givens cs/sn and
    rotated rhs g.

    ``ensure(n, restart, dtype)`` (re)allocates only when the
    requested shape/dtype differs from what is held; ``allocations``
    counts how many times that happened, so tests and benches can
    assert that steady-state solves allocate nothing.
    """

    def __init__(self, n: int | None = None, restart: int | None = None,
                 dtype=np.float64) -> None:
        self.allocations = 0
        self._key: tuple | None = None
        self.V = self.H = self.cs = self.sn = self.g = None
        if n is not None and restart is not None:
            self.ensure(n, restart, dtype=dtype)

    # ------------------------------------------------------------------
    def ensure(self, n: int, restart: int,
               dtype=np.float64) -> "KrylovWorkspace":
        """Make the arrays match ``(n, restart, dtype)``; reallocate only
        on mismatch."""
        dtype = np.dtype(dtype)
        key = (int(n), int(restart), dtype)
        if self._key != key:
            m = int(restart)
            self.V = np.empty((m + 1, int(n)), dtype=dtype)
            self.H = np.zeros((m + 1, m), dtype=dtype)
            self.cs = np.zeros(m, dtype=dtype)
            self.sn = np.zeros(m, dtype=dtype)
            self.g = np.zeros(m + 1, dtype=dtype)
            self._key = key
            self.allocations += 1
        return self

    def reset(self) -> None:
        """Zero the small per-restart arrays.  V needs no clearing:
        every slot read within a cycle is written first."""
        self.H[...] = 0
        self.cs[...] = 0
        self.sn[...] = 0
        self.g[...] = 0

    # ------------------------------------------------------------------
    @property
    def n(self) -> int | None:
        return self._key[0] if self._key else None

    @property
    def restart(self) -> int | None:
        return self._key[1] if self._key else None

    @property
    def dtype(self) -> np.dtype | None:
        return self._key[2] if self._key else None

    def nbytes(self) -> int:
        """Total bytes held — the fixed memory cost of reuse."""
        arrays = [self.V, self.H, self.cs, self.sn, self.g]
        return sum(a.nbytes for a in arrays if a is not None)
