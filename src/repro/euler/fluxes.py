"""Pointwise Euler fluxes, flux Jacobians, and the Rusanov numerical flux.

All functions are vectorised over a batch of faces: states have shape
``(m, ncomp)`` and area vectors ``(m, 3)``.  Area vectors are *not*
normalised — they carry the dual-face area, so fluxes integrate to
conservation-law residuals directly.

Incompressible flow uses Chorin's artificial compressibility: the
continuity equation becomes ``p_t / beta + div(V) = 0``, giving a
hyperbolic system with pseudo-acoustic speed ``sqrt(un^2 + beta |S|^2)``
whose steady states are exactly incompressible Euler solutions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "incompressible_flux", "incompressible_flux_jacobian",
    "incompressible_wavespeed",
    "compressible_flux", "compressible_flux_jacobian",
    "compressible_wavespeed",
    "rusanov_flux", "rusanov_flux_jacobians", "rusanov_half_jacobian",
    "rusanov_model", "flux_family",
]

# ----------------------------------------------------------------------
# Incompressible (artificial compressibility), q = (p, u, v, w)
# ----------------------------------------------------------------------

def incompressible_flux(q: np.ndarray, s: np.ndarray,
                        beta: float = 10.0) -> np.ndarray:
    """Flux of the artificial-compressibility system through face s."""
    q = np.atleast_2d(q)
    s = np.atleast_2d(s)
    vel = q[:, 1:4]
    un = np.einsum("ij,ij->i", vel, s)
    f = np.empty_like(q)
    f[:, 0] = beta * un
    f[:, 1:4] = vel * un[:, None] + q[:, 0:1] * s
    return f


def incompressible_flux_jacobian(q: np.ndarray, s: np.ndarray,
                                 beta: float = 10.0) -> np.ndarray:
    """Exact Jacobian dF/dq, shape (m, 4, 4)."""
    q = np.atleast_2d(q)
    s = np.atleast_2d(s)
    m = q.shape[0]
    vel = q[:, 1:4]
    un = np.einsum("ij,ij->i", vel, s)
    a = np.zeros((m, 4, 4))
    a[:, 0, 1:4] = beta * s
    # Momentum rows: d(v_i un + p s_i)/dp = s_i ;  /dv_j = v_i s_j + d_ij un
    a[:, 1:4, 0] = s
    a[:, 1:4, 1:4] = vel[:, :, None] * s[:, None, :]
    idx = np.arange(3)
    a[:, 1 + idx, 1 + idx] += un[:, None]
    return a


def incompressible_wavespeed(q: np.ndarray, s: np.ndarray,
                             beta: float = 10.0) -> np.ndarray:
    """Spectral radius of dF/dq: |un| + sqrt(un^2 + beta |S|^2)."""
    q = np.atleast_2d(q)
    s = np.atleast_2d(s)
    un = np.einsum("ij,ij->i", q[:, 1:4], s)
    s2 = np.einsum("ij,ij->i", s, s)
    return np.abs(un) + np.sqrt(un * un + beta * s2)


# ----------------------------------------------------------------------
# Compressible, q = (rho, rho u, rho v, rho w, E)
# ----------------------------------------------------------------------

def _compressible_primitives(q: np.ndarray, gamma: float):
    rho = q[:, 0]
    vel = q[:, 1:4] / rho[:, None]
    ke = 0.5 * rho * np.einsum("ij,ij->i", vel, vel)
    p = (gamma - 1.0) * (q[:, 4] - ke)
    return rho, vel, p


def compressible_flux(q: np.ndarray, s: np.ndarray,
                      gamma: float = 1.4) -> np.ndarray:
    q = np.atleast_2d(q)
    s = np.atleast_2d(s)
    rho, vel, p = _compressible_primitives(q, gamma)
    un = np.einsum("ij,ij->i", vel, s)
    f = np.empty_like(q)
    f[:, 0] = rho * un
    f[:, 1:4] = q[:, 1:4] * un[:, None] + p[:, None] * s
    f[:, 4] = (q[:, 4] + p) * un
    return f


def compressible_flux_jacobian(q: np.ndarray, s: np.ndarray,
                               gamma: float = 1.4) -> np.ndarray:
    """Exact Jacobian dF/dq of the compressible Euler flux, (m, 5, 5)."""
    q = np.atleast_2d(q)
    s = np.atleast_2d(s)
    m = q.shape[0]
    rho, vel, p = _compressible_primitives(q, gamma)
    un = np.einsum("ij,ij->i", vel, s)
    v2 = np.einsum("ij,ij->i", vel, vel)
    phi = 0.5 * (gamma - 1.0) * v2
    H = (q[:, 4] + p) / rho            # total enthalpy
    g1 = gamma - 1.0

    a = np.zeros((m, 5, 5))
    a[:, 0, 1:4] = s
    # Momentum rows i = 1..3 (velocity component vi, normal comp si).
    a[:, 1:4, 0] = phi[:, None] * s - vel * un[:, None]
    a[:, 1:4, 1:4] = (vel[:, :, None] * s[:, None, :]
                      - g1 * vel[:, None, :] * s[:, :, None])
    idx = np.arange(3)
    a[:, 1 + idx, 1 + idx] += un[:, None]
    a[:, 1:4, 4] = g1 * s
    # Energy row.
    a[:, 4, 0] = (phi - H) * un
    a[:, 4, 1:4] = H[:, None] * s - g1 * vel * un[:, None]
    a[:, 4, 4] = gamma * un
    return a


def compressible_wavespeed(q: np.ndarray, s: np.ndarray,
                           gamma: float = 1.4) -> np.ndarray:
    q = np.atleast_2d(q)
    s = np.atleast_2d(s)
    rho, vel, p = _compressible_primitives(q, gamma)
    un = np.einsum("ij,ij->i", vel, s)
    smag = np.sqrt(np.einsum("ij,ij->i", s, s))
    c = np.sqrt(np.maximum(gamma * p / rho, 0.0))
    return np.abs(un) + c * smag


# ----------------------------------------------------------------------
# Rusanov (local Lax-Friedrichs) numerical flux
# ----------------------------------------------------------------------

def rusanov_flux(ql: np.ndarray, qr: np.ndarray, s: np.ndarray,
                 flux, wavespeed, **kw) -> np.ndarray:
    """F = (F(ql) + F(qr))/2 - lam/2 (qr - ql), lam = max wavespeed."""
    fl = flux(ql, s, **kw)
    fr = flux(qr, s, **kw)
    lam = np.maximum(wavespeed(ql, s, **kw), wavespeed(qr, s, **kw))
    return 0.5 * (fl + fr) - 0.5 * lam[:, None] * (np.atleast_2d(qr)
                                                   - np.atleast_2d(ql))


def flux_family(disc) -> tuple[str, float] | None:
    """``(model, param)`` of the discretisation's pointwise flux family
    — the flux, flux Jacobian and wave speed the compiled kernels
    mirror — or ``None`` when it is not one of them.

    The check is deliberately exact-type: a subclass may override any
    hook, and the compiled arithmetic must only replace what it was
    written against.  Imported lazily to keep this module free of the
    discretisation dependency cycle.
    """
    from repro.euler.compressible import CompressibleEuler
    from repro.euler.incompressible import IncompressibleEuler

    if type(disc) is IncompressibleEuler:
        return "incompressible", float(disc.beta)
    if type(disc) is CompressibleEuler:
        return "compressible", float(disc.gamma)
    return None


def rusanov_model(disc) -> tuple[str, float] | None:
    """``(model, param)`` for the end-to-end compiled Rusanov scatter
    kernel (``repro.kernels.rusanov_scatter``), or ``None`` when the
    discretisation's interior flux is not one the compiled kernel
    mirrors: its :func:`flux_family`, unless the interface flux is Roe
    (``CompressibleEuler(flux_scheme="roe")``).  The first-order
    Jacobian differentiates the Rusanov flux whatever the residual
    runs, so its kernel gates on :func:`flux_family` alone.
    """
    family = flux_family(disc)
    if family is not None and getattr(disc, "flux_scheme",
                                      "rusanov") != "rusanov":
        return None
    return family


def rusanov_flux_jacobians(ql: np.ndarray, qr: np.ndarray, s: np.ndarray,
                           flux_jacobian, wavespeed, **kw):
    """First-order Jacobians of the Rusanov flux w.r.t. ql and qr.

    The dissipation coefficient lambda is frozen (its derivative is
    dropped), which is the standard "first-order analytical Jacobian"
    the paper builds its preconditioner from: dF/dql = (A(ql)+lam I)/2,
    dF/dqr = (A(qr)-lam I)/2.
    """
    lam = np.maximum(wavespeed(ql, s, **kw), wavespeed(qr, s, **kw))
    return (rusanov_half_jacobian(flux_jacobian(ql, s, **kw), lam),
            rusanov_half_jacobian(flux_jacobian(qr, s, **kw), -lam))


def rusanov_half_jacobian(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``(A + lam I) / 2`` for a batch of flux Jacobians ``a`` (m, nc,
    nc): the left-state Rusanov Jacobian, or with ``-lam`` the right
    one (``a - lam I`` and ``a + (-lam) I`` are the same IEEE sums)."""
    return 0.5 * (a + lam[:, None, None] * np.eye(a.shape[1])[None])
