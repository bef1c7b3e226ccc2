"""Shared edge-based finite-volume machinery for the Euler systems.

:class:`EdgeFVDiscretization` owns everything both flow models share:
the vectorised edge flux loop (first or second order), weak boundary
fluxes, the first-order analytical point-block Jacobian (assembled
into BSR through the static :class:`BlockStructure`), pseudo-timestep
scaling, the matrix-free Jacobian-vector product, and per-residual
flop accounting (feeding the performance models).

Subclasses supply the pointwise flux family via ``_flux``,
``_flux_jacobian``, ``_wavespeed``, ``_wall_flux``, and
``_wall_flux_jacobian``.
"""

from __future__ import annotations

import numpy as np

from repro import kernels as _kernels
from repro.euler.boundary import BoundaryCondition
from repro.euler.fluxes import (rusanov_flux, rusanov_flux_jacobians,
                                rusanov_model)
from repro.euler.reconstruction import (Limiter, green_gauss_gradients,
                                        reconstruct_edge_states)
from repro.mesh.dualmesh import DualMetrics, compute_dual_metrics
from repro.mesh.mesh import Mesh
from repro.sparse.bsr import BSRMatrix
from repro.sparse.layouts import BlockStructure, assemble_bsr, block_structure_from_edges
from repro.sparse.segsum import segment_sum
from repro.solvers.krylov_base import OperatorFromCallable

__all__ = ["EdgeFVDiscretization"]


class EdgeFVDiscretization:
    """Base class: vertex-centred FV Euler discretisation on a tet mesh."""

    ncomp: int = 0          # set by subclass
    components: tuple[str, ...] = ()

    def __init__(self, mesh: Mesh, bc: BoundaryCondition,
                 dual: DualMetrics | None = None, *,
                 second_order: bool = True,
                 limiter: Limiter | str = Limiter.VAN_ALBADA,
                 engine: str = "numpy") -> None:
        self.mesh = mesh
        self.dual = dual if dual is not None else compute_dual_metrics(mesh)
        self.bc = bc
        self.second_order = second_order
        self.limiter = Limiter(limiter)
        self.engine = engine        # kernel tier for scatter/assembly
        self.structure: BlockStructure = block_structure_from_edges(
            mesh.num_vertices, mesh.edges)
        self.farfield_state: np.ndarray | None = None  # (ncomp,) set by subclass
        self.nresidual_evals = 0

    # -- subclass hooks --------------------------------------------------
    def _flux(self, q, s): ...
    def _flux_jacobian(self, q, s): ...
    def _wavespeed(self, q, s): ...
    def _wall_flux(self, q, n): ...
    def _wall_flux_jacobian(self, q, n): ...

    def _numerical_flux(self, ql, qr, s):
        """Interface flux; Rusanov by default, overridable (e.g. Roe).

        The assembled first-order Jacobian always differentiates the
        Rusanov form (frozen dissipation) regardless — the paper's
        preconditioner matrix is deliberately the most dissipative
        first-order operator, whatever flux the residual runs.
        """
        return rusanov_flux(ql, qr, s, self._flux, self._wavespeed)

    # -- residual ---------------------------------------------------------
    @property
    def num_unknowns(self) -> int:
        return self.mesh.num_vertices * self.ncomp

    def residual(self, qflat: np.ndarray,
                 second_order: bool | None = None) -> np.ndarray:
        """Steady residual R(q): net outflow of each dual volume.

        Interior dual faces get the configured numerical flux between
        edge states (first-order: nodal; second-order:
        MUSCL-reconstructed); boundary vertices get wall or farfield
        closures.
        """
        self.nresidual_evals += 1
        use2 = self.second_order if second_order is None else second_order
        q = qflat.reshape(self.mesh.num_vertices, self.ncomp)
        e0 = self.mesh.edges[:, 0]
        e1 = self.mesh.edges[:, 1]
        s = self.dual.edge_normals
        n = self.mesh.num_vertices
        model = rusanov_model(self) if self.engine != "numpy" else None
        r = None
        if use2:
            grad = green_gauss_gradients(self.mesh, self.dual, q,
                                         engine=self.engine)
            if model is not None:
                # Second pass of the compiled second-order residual:
                # reconstruction, limiter, Rusanov flux and scatter in
                # one loop over the edges, no edge state in between.
                # Geometry is read now, never memoised: callers may
                # move mesh.coords in place.  Normwise against the
                # numpy composition below, like the first-order kernel.
                fused = _kernels.muscl_rusanov_scatter(
                    *self.mesh.edge_endpoints(), q, grad, self.mesh.coords,
                    s, self.limiter.value, model[0], model[1], self.engine)
                if fused is not None:
                    r = fused[0] - fused[1]
            if r is None:
                ql, qr = reconstruct_edge_states(self.mesh, self.dual, q,
                                                 grad, self.limiter)
        else:
            ql, qr = q[e0], q[e1]
        if r is None and model is not None:
            # End-to-end compiled interior leg: Rusanov arithmetic
            # and the scatter run in one pass over the edges (the
            # previous compiled leg only fused the scatter, leaving
            # the flux math in numpy).  The numpy path below stays
            # the oracle; equivalence is normwise (the compiled
            # kernel's sequential dots re-associate the einsum
            # reductions).  Exact-type gated by rusanov_model, so
            # overridden fluxes (Roe) never reach it.
            fused = _kernels.rusanov_scatter(e0, e1, ql, qr, s, n,
                                             model[0], model[1],
                                             self.engine)
            if fused is not None:
                r = fused[0] - fused[1]
        if r is None:
            f = self._numerical_flux(ql, qr, s)
            scat = (_kernels.edge_scatter2(e0, e1, f, f, n, self.engine)
                    if self.engine != "numpy" else None)
            if scat is not None:
                r = scat[0] - scat[1]
            else:
                r = (segment_sum(e0, f, n,
                                 self.mesh.edge_scatter_index(0, self.ncomp))
                     - segment_sum(e1, f, n,
                                   self.mesh.edge_scatter_index(1, self.ncomp)))
        self._add_boundary_residual(q, r)
        return r.ravel()

    def _add_boundary_residual(self, q: np.ndarray, r: np.ndarray) -> None:
        bc = self.bc
        if bc.vertices.size == 0:
            return
        qb = q[bc.vertices]
        # Walls.
        # bc.vertices is unique (one entry per boundary vertex), so the
        # masked subsets are too and plain fancy-indexed adds are exact.
        wm = bc.wall_mask
        if wm.any():
            fw = self._wall_flux(qb[wm], bc.normals[wm])
            r[bc.vertices[wm]] += fw
        # Farfield: Rusanov against the frozen freestream.
        fm = bc.farfield_mask
        if fm.any():
            if self.farfield_state is None:
                raise RuntimeError("farfield_state is not set")
            qi = qb[fm]
            qe = np.broadcast_to(self.farfield_state, qi.shape)
            ff = self._numerical_flux(qi, qe, bc.normals[fm])
            r[bc.vertices[fm]] += ff

    # -- first-order analytical Jacobian -----------------------------------
    def assemble_jacobian(self, qflat: np.ndarray) -> BSRMatrix:
        """First-order point-block Jacobian (the preconditioner matrix;
        the paper always builds it from the first-order scheme)."""
        q = qflat.reshape(self.mesh.num_vertices, self.ncomp)
        e0 = self.mesh.edges[:, 0]
        e1 = self.mesh.edges[:, 1]
        s = self.dual.edge_normals
        jl, jr = rusanov_flux_jacobians(q[e0], q[e1], s,
                                        self._flux_jacobian, self._wavespeed)
        n = self.mesh.num_vertices
        nc2 = self.ncomp * self.ncomp
        # R_i += F_ij  ->  dR_i/dq_i += jl, dR_i/dq_j += jr
        # R_j -= F_ij  ->  dR_j/dq_j -= jr, dR_j/dq_i -= jl
        scat = (_kernels.edge_scatter2(e0, e1, jl, jr, n, self.engine)
                if self.engine != "numpy" else None)
        if scat is not None:
            diag = scat[0] - scat[1]
        else:
            diag = (segment_sum(e0, jl, n,
                                self.mesh.edge_scatter_index(0, nc2))
                    - segment_sum(e1, jr, n,
                                  self.mesh.edge_scatter_index(1, nc2)))
        self._add_boundary_jacobian(q, diag)
        return assemble_bsr(self.structure, self.ncomp, diag,
                            off_ij=jr, off_ji=-jl, engine=self.engine)

    def _add_boundary_jacobian(self, q: np.ndarray, diag: np.ndarray) -> None:
        bc = self.bc
        if bc.vertices.size == 0:
            return
        qb = q[bc.vertices]
        wm = bc.wall_mask
        if wm.any():
            jw = self._wall_flux_jacobian(qb[wm], bc.normals[wm])
            diag[bc.vertices[wm]] += jw
        fm = bc.farfield_mask
        if fm.any():
            qi = qb[fm]
            qe = np.broadcast_to(self.farfield_state, qi.shape)
            jl, _ = rusanov_flux_jacobians(qi, qe, bc.normals[fm],
                                           self._flux_jacobian,
                                           self._wavespeed)
            diag[bc.vertices[fm]] += jl

    # -- pseudo-transient scaling ------------------------------------------
    def timestep_shift(self, qflat: np.ndarray, cfl: float) -> np.ndarray:
        """Per-vertex diagonal shift V_i/dt_i = (1/CFL) sum_faces lambda.

        The local pseudo-timestep is dt_i = CFL V_i / sum |lambda|_faces,
        so the shifted Jacobian is J + diag(shift) with this shift.
        """
        q = qflat.reshape(self.mesh.num_vertices, self.ncomp)
        e0 = self.mesh.edges[:, 0]
        e1 = self.mesh.edges[:, 1]
        s = self.dual.edge_normals
        lam = np.maximum(self._wavespeed(q[e0], s), self._wavespeed(q[e1], s))
        n = self.mesh.num_vertices
        scat = (_kernels.edge_scatter2(e0, e1, lam, lam, n, self.engine)
                if self.engine != "numpy" else None)
        if scat is not None:
            acc = scat[0] + scat[1]
        else:
            acc = (segment_sum(e0, lam, n, self.mesh.edge_scatter_index(0, 1))
                   + segment_sum(e1, lam, n,
                                 self.mesh.edge_scatter_index(1, 1)))
        bc = self.bc
        if bc.vertices.size:
            acc[bc.vertices] += self._wavespeed(q[bc.vertices], bc.normals)
        return acc / cfl

    def shifted_jacobian(self, qflat: np.ndarray, cfl: float) -> BSRMatrix:
        """J(q) + (V/dt) I, the matrix of one PTC step."""
        jac = self.assemble_jacobian(qflat)
        shift = self.timestep_shift(qflat, cfl)
        dblocks = shift[:, None, None] * np.eye(self.ncomp)[None]
        return jac.add_block_diagonal(dblocks)

    # -- matrix-free operator ----------------------------------------------
    def jacobian_operator(self, qflat: np.ndarray, *,
                          shift: np.ndarray | None = None,
                          second_order: bool | None = None,
                          fd_eps: float | None = None) -> OperatorFromCallable:
        """Matrix-free J(q) v by one-sided finite differences.

        This is the paper's "matrix-free implementation": the true
        (second-order) Jacobian is never assembled; only its action is
        sampled, while the assembled first-order matrix serves as the
        preconditioner.  ``shift`` adds the PTC diagonal (per vertex,
        broadcast over components).
        """
        base = self.residual(qflat, second_order=second_order)
        qnorm = float(np.linalg.norm(qflat))

        def matvec(v: np.ndarray) -> np.ndarray:
            vnorm = float(np.linalg.norm(v))
            if vnorm == 0.0:
                return np.zeros_like(v)
            eps = fd_eps if fd_eps is not None else \
                np.sqrt(np.finfo(np.float64).eps) * (1.0 + qnorm) / vnorm
            jv = (self.residual(qflat + eps * v, second_order=second_order)
                  - base) / eps
            if shift is not None:
                jv = jv + (np.repeat(shift, self.ncomp) * v)
            return jv

        return OperatorFromCallable(matvec, self.num_unknowns)

    # -- accounting ----------------------------------------------------------
    def residual_flops(self, second_order: bool | None = None) -> int:
        """Approximate flop count of one residual evaluation (used by the
        Gflop/s reporting in the Fig. 1/Fig. 2 reproductions)."""
        use2 = self.second_order if second_order is None else second_order
        ne = self.mesh.num_edges
        nb = self.bc.vertices.size
        nc = self.ncomp
        per_flux = 12 * nc + 14          # flux pair + dissipation + speeds
        per_edge = per_flux + 2 * nc     # + scatter add/sub
        if use2:
            per_edge += 8 * nc + 3 * nc  # gradients + reconstruction
        return ne * per_edge + nb * per_flux
