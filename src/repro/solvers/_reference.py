"""Pre-workspace GMRES, kept verbatim as a semantics/perf baseline.

:func:`gmres_ref` is the restarted right-preconditioned GMRES exactly
as it stood before the :class:`repro.solvers.workspace.KrylovWorkspace`
refactor: every restart allocates (and zeroes) a fresh Krylov basis and
Hessenberg, and all arithmetic is hardwired to float64.  It is the
oracle the property tests compare :func:`repro.solvers.gmres.gmres`
against.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.gmres import GMRESResult, _check_sizes
from repro.solvers.krylov_base import as_operator

__all__ = ["gmres_ref"]


class _IdentityPC:
    def solve(self, r: np.ndarray) -> np.ndarray:
        return r


def gmres_ref(a, b: np.ndarray, *, M=None, rtol: float = 1e-5,
              restart: int = 20, maxiter: int = 200) -> GMRESResult:
    """Solve ``a x = b`` with the pre-workspace restarted GMRES."""
    _check_sizes(restart, maxiter)
    op = as_operator(a, n=b.size)
    pc = M if M is not None else _IdentityPC()
    n = b.size
    x = np.zeros(n)

    bnorm = float(np.linalg.norm(b))
    target = max(rtol * bnorm, 1e-50)
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
            return GMRESResult(x=x, converged=beta <= target,
                               iterations=total_its, restarts=restarts,
                               residual_norms=resnorms, matvecs=matvecs,
                               precond_applies=pc_applies)

        m = min(restart, maxiter - total_its)
        V = np.zeros((m + 1, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        V[0] = r / beta
        g[0] = beta
        k_done = 0
        breakdown = False

        for k in range(m):
            z = pc.solve(V[k])
            pc_applies += 1
            w = op.matvec(z)
            matvecs += 1
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
            y = _back_substitute_ref(H, g, k_done)
            update = V[:k_done].T @ y
            x = x + pc.solve(update)
            pc_applies += 1
        restarts += 1
        if breakdown:
            r = b - op.matvec(x)
            matvecs += 1
            beta = float(np.linalg.norm(r))
            resnorms.append(beta)
            return GMRESResult(x=x, converged=beta <= target,
                               iterations=total_its, restarts=restarts,
                               residual_norms=resnorms, matvecs=matvecs,
                               precond_applies=pc_applies)


def _back_substitute_ref(H: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - H[i, i + 1 : k] @ y[i + 1 : k]) / H[i, i]
    return y
