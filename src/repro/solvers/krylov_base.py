"""Linear-operator abstraction shared by the Krylov solvers.

Mirrors PETSc's ``Mat``/shell-matrix duality: an operator is anything
with a shape and a matvec, so the solvers work identically on an
assembled CSR/BSR Jacobian and on the matrix-free finite-difference
Jacobian-vector product the paper's "matrix-free implementation"
(Sec. 2.2) uses.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

__all__ = ["LinearOperator", "OperatorFromMatrix", "OperatorFromCallable",
           "as_operator"]


@runtime_checkable
class LinearOperator(Protocol):
    """Anything that can be applied to a vector."""

    @property
    def shape(self) -> tuple[int, int]: ...

    def matvec(self, x: np.ndarray) -> np.ndarray: ...


class OperatorFromMatrix:
    """Wrap an assembled matrix (CSR/BSR or dense ndarray)."""

    def __init__(self, a) -> None:
        self._a = a
        self.nmatvecs = 0

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self._a.shape)  # type: ignore[return-value]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        self.nmatvecs += 1
        return self._a @ x


class OperatorFromCallable:
    """Wrap a matvec closure (matrix-free operator)."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], n: int) -> None:
        self._fn = fn
        self._n = n
        self.nmatvecs = 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        self.nmatvecs += 1
        return self._fn(x)


def as_operator(a, n: int | None = None) -> LinearOperator:
    """Coerce a matrix, callable, or operator into a LinearOperator."""
    if isinstance(a, (OperatorFromMatrix, OperatorFromCallable)):
        return a
    if callable(getattr(a, "matvec", None)) and hasattr(a, "shape"):
        return OperatorFromMatrix(a)
    if isinstance(a, np.ndarray):
        return OperatorFromMatrix(a)
    if callable(a):
        if n is None:
            raise ValueError("need n for a callable operator")
        return OperatorFromCallable(a, n)
    raise TypeError(f"cannot interpret {type(a)} as a linear operator")
