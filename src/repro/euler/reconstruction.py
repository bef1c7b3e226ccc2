"""Second-order linear reconstruction with limiting.

FUN3D's "second-order flux-limited" convection scheme: nodal gradients
by a Green-Gauss loop over edges (using the same dual-face areas as
the flux loop, so the gradient of a linear field is exact up to the
dual-closure identity), then extrapolation of the two edge states to
the edge midpoint with an optional Van Albada limiter.  The paper
switches between first and second order as a robustness continuation
parameter (Sec. 2.4.1).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro import kernels as _kernels
from repro.mesh.dualmesh import DualMetrics
from repro.mesh.mesh import Mesh
from repro.sparse.segsum import segment_sum

__all__ = ["Limiter", "green_gauss_gradients", "reconstruct_edge_states"]


class Limiter(str, Enum):
    NONE = "none"
    VAN_ALBADA = "van_albada"
    MINMOD = "minmod"


def green_gauss_gradients(mesh: Mesh, dual: DualMetrics, q: np.ndarray,
                          engine: str = "numpy") -> np.ndarray:
    """Nodal gradients, shape (n, ncomp, 3).

    grad_i = (1/V_i) [ sum_edges s_ij (q_i + q_j)/2 (+/-)
                       + bnd_normal_i q_i ]
    which is exact for linear q on interior vertices thanks to the
    dual-face closure identity.

    ``engine="compiled"`` asks for the one-pass C twin
    (:func:`repro.kernels.green_gauss`), bitwise equal to the numpy
    code below, which runs whenever the kernel declines.
    """
    if engine != "numpy":
        grad = _kernels.green_gauss(
            *mesh.edge_endpoints(), q, dual.edge_normals,
            dual.bnd_vertex_normals, dual.dual_volumes, engine)
        if grad is not None:
            return grad
    n, ncomp = q.shape
    e0 = mesh.edges[:, 0]
    e1 = mesh.edges[:, 1]
    qm = 0.5 * (q[e0] + q[e1])                      # (ne, ncomp)
    contrib = qm[:, :, None] * dual.edge_normals[:, None, :]  # (ne,ncomp,3)
    grad = (segment_sum(e0, contrib, n, mesh.edge_scatter_index(0, ncomp * 3))
            - segment_sum(e1, contrib, n,
                          mesh.edge_scatter_index(1, ncomp * 3)))
    grad += q[:, :, None] * dual.bnd_vertex_normals[:, None, :]
    grad /= dual.dual_volumes[:, None, None]
    return grad


def _van_albada(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Van Albada average: smooth, signs-agree limiter."""
    num = (a * a + eps) * b + (b * b + eps) * a
    den = a * a + b * b + 2 * eps
    out = num / den
    return np.where(a * b > 0, out, 0.0)


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b > 0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def reconstruct_edge_states(mesh: Mesh, dual: DualMetrics, q: np.ndarray,
                            grad: np.ndarray,
                            limiter: Limiter | str = Limiter.VAN_ALBADA
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Left/right states at each edge midpoint (MUSCL extrapolation).

    The "central" slope along the edge is ``dq = q_j - q_i``; the
    one-sided slope from the gradient is ``2 grad . dx - dq`` (so the
    unlimited average reproduces the gradient extrapolation).  The
    limiter blends them per component.
    """
    limiter = Limiter(limiter)
    e0 = mesh.edges[:, 0]
    e1 = mesh.edges[:, 1]
    dx = mesh.coords[e1] - mesh.coords[e0]           # (ne, 3)
    dq = q[e1] - q[e0]                               # (ne, ncomp)
    gl = np.einsum("ecx,ex->ec", grad[e0], dx)       # 2*slope from i side
    gr = np.einsum("ecx,ex->ec", grad[e1], dx)
    # Upwind-biased slopes (kappa=0 MUSCL family).
    sl_l = 2.0 * gl - dq
    sl_r = 2.0 * gr - dq
    if limiter is Limiter.NONE:
        dl = 0.5 * (sl_l + dq) * 0.5
        dr = 0.5 * (sl_r + dq) * 0.5
    elif limiter is Limiter.VAN_ALBADA:
        dl = 0.5 * _van_albada(sl_l, dq)
        dr = 0.5 * _van_albada(sl_r, dq)
    else:
        dl = 0.5 * _minmod(sl_l, dq)
        dr = 0.5 * _minmod(sl_r, dq)
    ql = q[e0] + dl
    qr = q[e1] - dr
    return ql, qr
