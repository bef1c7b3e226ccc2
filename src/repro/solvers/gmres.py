"""Restarted GMRES with right preconditioning.

This is the Krylov workhorse of the paper's runs (GMRES(20) in
Table 4).  Design choices mirror PETSc-FUN3D usage:

* **right** preconditioning, so the monitored residual norms are true
  residuals of the original system and iteration counts are directly
  comparable across preconditioners (essential for Table 4's fairness);
* modified Gram-Schmidt orthogonalisation;
* restart dimension and total-iteration cap as first-class knobs;
* a reusable :class:`~repro.solvers.workspace.KrylovWorkspace` so the
  basis/Hessenberg arrays are allocated once per solver lifetime, not
  once per restart, and the working precision follows the right-hand
  side (float32 in, float32 basis — the Sec. 3.2 precision knob).

The recurrence monitors the Givens-rotation residual estimate, which
for right preconditioning equals the true unpreconditioned residual
norm in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.solvers.krylov_base import  as_operator
from repro.solvers.workspace import KrylovWorkspace, solve_dtype
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["gmres", "GMRESResult"]


@dataclass
class GMRESResult:
    x: np.ndarray
    converged: bool
    iterations: int           # total inner iterations across restarts
    restarts: int
    residual_norms: list[float] = field(default_factory=list)
    matvecs: int = 0
    precond_applies: int = 0


class _IdentityPC:
    def solve(self, r: np.ndarray) -> np.ndarray:
        return r


def _check_sizes(restart: int, maxiter: int) -> None:
    """Reject sizes no solve can run under (``restart=0`` would cycle
    without ever taking an iteration)."""
    if restart < 1:
        raise ValueError(f"restart must be >= 1, got {restart}")
    if maxiter < 0:
        raise ValueError(f"maxiter must be >= 0, got {maxiter}")


def gmres(a, b: np.ndarray, *, M=None, x0: np.ndarray | None = None,
          rtol: float = 1e-5, atol: float = 1e-50, restart: int = 20,
          maxiter: int = 200,
          workspace: KrylovWorkspace | None = None,
          recorder=NULL_RECORDER) -> GMRESResult:
    """Solve ``a x = b`` with restarted, right-preconditioned GMRES.

    Parameters
    ----------
    a:
        Matrix, operator, or matvec callable (see ``as_operator``).
    M:
        Preconditioner with a ``solve(r)`` method approximating
        ``A^{-1} r``; identity if None.
    rtol, atol:
        Stop when ``||r|| <= max(rtol * ||b||, atol)``.
    restart:
        Krylov subspace dimension between restarts (GMRES(m)), >= 1.
    maxiter:
        Cap on total inner iterations across all restarts, >= 0.
    workspace:
        Preallocated arrays to (re)use; resized in place if they do not
        match ``(b.size, restart, dtype)``.  Passing the same workspace
        across calls (the driver does, one per Newton solve) removes all
        per-restart allocation.  The iterates are identical either way.
    recorder:
        Optional :class:`repro.telemetry.TraceRecorder`: records an
        ``orthogonalization`` span per inner iteration and the
        ``linear_iterations`` / ``matvecs`` / ``precond_applies``
        counters.  Never touches the arithmetic — an instrumented
        solve is bitwise-identical to an uninstrumented one.

    The working precision is taken from ``b``: a float32 right-hand
    side runs the basis, Hessenberg, and solution update in float32.
    """
    _check_sizes(restart, maxiter)
    op = as_operator(a, n=b.size)
    rec = recorder if recorder is not None else NULL_RECORDER
    pc = M if M is not None else _IdentityPC()
    n = b.size
    dtype = solve_dtype(b.dtype)
    ws = workspace if workspace is not None else KrylovWorkspace()
    ws.ensure(n, restart, dtype=dtype)
    x = (np.zeros(n, dtype=dtype) if x0 is None
         else np.array(x0, dtype=dtype))

    bnorm = float(np.linalg.norm(b))
    target = max(rtol * bnorm, atol)
    matvecs = 0
    pc_applies = 0
    resnorms: list[float] = []
    total_its = 0
    restarts = 0

    while True:
        r = b - op.matvec(x)
        matvecs += 1
        beta = float(np.linalg.norm(r))
        if not resnorms:
            resnorms.append(beta)
        if beta <= target or total_its >= maxiter:
            return _finish(rec, GMRESResult(
                x=x, converged=beta <= target,
                iterations=total_its, restarts=restarts,
                residual_norms=resnorms, matvecs=matvecs,
                precond_applies=pc_applies))

        m = min(restart, maxiter - total_its)
        ws.reset()
        V = ws.V[: m + 1]
        H = ws.H[: m + 1, :m]
        cs = ws.cs[:m]
        sn = ws.sn[:m]
        g = ws.g[: m + 1]
        V[0] = r / beta
        g[0] = beta
        k_done = 0
        breakdown = False

        for k in range(m):
            z = pc.solve(V[k])
            pc_applies += 1
            w = op.matvec(z)
            matvecs += 1
            with rec.span("orthogonalization"):
                for j in range(k + 1):
                    H[j, k] = float(V[j] @ w)
                    w -= H[j, k] * V[j]
            hnext = float(np.linalg.norm(w))
            H[k + 1, k] = hnext
            # Apply accumulated Givens rotations to the new column.
            for j in range(k):
                t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
                H[j + 1, k] = -sn[j] * H[j, k] + cs[j] * H[j + 1, k]
                H[j, k] = t
            denom = float(np.hypot(H[k, k], H[k + 1, k]))
            if denom == 0.0:
                breakdown = True
                k_done = k + 1
                break
            cs[k] = H[k, k] / denom
            sn[k] = H[k + 1, k] / denom
            H[k, k] = denom
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            total_its += 1
            k_done = k + 1
            resnorms.append(abs(float(g[k + 1])))
            if hnext <= 1e-14 * beta:   # happy breakdown: exact solution
                breakdown = True
                break
            V[k + 1] = w / hnext
            if abs(g[k + 1]) <= target:
                break

        # Solve the small triangular system and update x.
        if k_done > 0:
            y = _back_substitute(H, g, k_done)
            update = V[:k_done].T @ y
            # Right preconditioning: x += M^{-1} (V y).  Applying M^{-1}
            # to the combination (rather than storing Z = M^{-1}V) is
            # valid because our preconditioners are linear operators.
            x = x + pc.solve(update).astype(dtype, copy=False)
            pc_applies += 1
        restarts += 1
        if breakdown:
            r = b - op.matvec(x)
            matvecs += 1
            beta = float(np.linalg.norm(r))
            resnorms.append(beta)
            return _finish(rec, GMRESResult(
                x=x, converged=beta <= target,
                iterations=total_its, restarts=restarts,
                residual_norms=resnorms, matvecs=matvecs,
                precond_applies=pc_applies))


def _finish(rec, res: GMRESResult) -> GMRESResult:
    """Record the solve's counters on the way out (no-op when null)."""
    rec.count("linear_iterations", res.iterations)
    rec.count("matvecs", res.matvecs)
    rec.count("precond_applies", res.precond_applies)
    return res


def _back_substitute(H: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    y = np.zeros(k, dtype=H.dtype)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - H[i, i + 1 : k] @ y[i + 1 : k]) / H[i, i]
    return y
