"""Reduced-precision storage policies (paper Sec. 2.2, Table 2).

The triangular solves run at the memory-bandwidth limit, so storing
the (already approximate) preconditioner factors in single precision
halves their traffic and nearly doubles the phase's speed — while all
*arithmetic* stays double precision, so the preconditioned operator is
essentially unchanged and the iteration count is unaffected.

:class:`PrecisionPolicy` is the one precision knob.  The outer Newton
loop always runs fp64 (the nonlinear residual sets the answer's
accuracy); the preconditioner factors may be stored fp32 — the paper's
Table 2 configuration, ``"fp32-precond"`` — and the Krylov basis may
additionally drop to fp32 (``"fp32"``), since both only steer the
correction.  Each tier's storage roundoff is bounded componentwise by
``(0.5 eps_storage + row_nnz eps_compute) |A| |x|``, the bound
``tests/test_sparse_precision.py`` checks (``tests/helpers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PrecisionPolicy"]

_WIDE = (np.dtype(np.float64), np.dtype(np.float32))


@dataclass(frozen=True)
class PrecisionPolicy:
    """Per-phase storage precisions of one solver configuration.

    ``krylov_dtype`` is the working precision of the GMRES basis (the
    rhs handed to the linear solve sets it; the Newton update is
    re-widened to fp64 on application).  ``precond_dtype`` is the ILU
    factor storage (Table 2's knob); the triangular solves widen the
    factors on load, so their arithmetic stays double.  Anything
    narrower than fp32 is rejected.
    """

    name: str
    krylov_dtype: np.dtype
    precond_dtype: np.dtype

    def __post_init__(self) -> None:
        object.__setattr__(self, "krylov_dtype", np.dtype(self.krylov_dtype))
        object.__setattr__(self, "precond_dtype",
                           np.dtype(self.precond_dtype))
        if self.krylov_dtype not in _WIDE:
            raise ValueError("krylov_dtype must be float64 or float32")
        if self.precond_dtype not in _WIDE:
            raise ValueError("precond_dtype must be float64 or float32")

    @classmethod
    def named(cls, name: "PrecisionPolicy | str") -> "PrecisionPolicy":
        """The named tiers: ``fp64`` (everything double — the default;
        bitwise-safe), ``fp32-precond`` (fp64 Krylov basis, fp32
        factor storage — the paper's Table 2 configuration), ``fp32``
        (fp32 Krylov basis + fp32 factor storage)."""
        if isinstance(name, cls):
            return name
        try:
            return _POLICIES[name]
        except KeyError:
            raise ValueError(
                f"unknown precision policy {name!r}; "
                f"expected one of {sorted(_POLICIES)}") from None


_POLICIES = {
    "fp64": PrecisionPolicy("fp64", np.float64, np.float64),
    "fp32-precond": PrecisionPolicy("fp32-precond", np.float64, np.float32),
    "fp32": PrecisionPolicy("fp32", np.float32, np.float32),
}
