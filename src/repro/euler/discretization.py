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
from repro.euler.fluxes import (flux_family, rusanov_flux,
                                rusanov_flux_jacobians,
                                rusanov_half_jacobian, rusanov_model)
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
                 limiter: Limiter | str = Limiter.VAN_ALBADA) -> None:
        self.mesh = mesh
        self.dual = dual if dual is not None else compute_dual_metrics(mesh)
        self.bc = bc
        self.second_order = second_order
        self.limiter = Limiter(limiter)
        self.engine = "numpy"       # kernel tier: the driver sets its own
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
        closures.  The first-order residual is
        :meth:`first_order_residual` over the whole mesh.
        """
        self.nresidual_evals += 1
        use2 = self.second_order if second_order is None else second_order
        q = qflat.reshape(self.mesh.num_vertices, self.ncomp)
        e0, e1 = self.mesh.edge_endpoints()
        s = self.dual.edge_normals
        index = (self.mesh.edge_scatter_index(0, self.ncomp),
                 self.mesh.edge_scatter_index(1, self.ncomp))
        if not use2:
            return self.first_order_residual(q, e0, e1, s, self.bc.row_sets(),
                                             index).ravel()
        grad = green_gauss_gradients(self.mesh, self.dual, q,
                                     engine=self.engine)
        model = rusanov_model(self) if self.engine != "numpy" else None
        fused = None
        if model is not None:
            # Second pass of the compiled second-order residual:
            # reconstruction, limiter, Rusanov flux and scatter in
            # one loop over the edges, no edge state in between.
            # Geometry is read now, never memoised: callers may
            # move mesh.coords in place.  Normwise against the
            # numpy composition below, like the first-order kernel.
            fused = _kernels.muscl_rusanov_scatter(
                e0, e1, q, grad, self.mesh.coords,
                s, self.limiter.value, model[0], model[1], self.engine)
        if fused is not None:
            r = fused[0] - fused[1]
        else:
            ql, qr = reconstruct_edge_states(self.mesh, self.dual, q,
                                             grad, self.limiter)
            r = self._interior_residual(ql, qr, e0, e1, s,
                                        self.mesh.num_vertices, index)
        self._add_boundary_residual(q, r)
        return r.ravel()

    def first_order_residual(self, q: np.ndarray, e0: np.ndarray,
                             e1: np.ndarray, s: np.ndarray, rows: tuple,
                             index: tuple | None = None) -> np.ndarray:
        """First-order residual rows ``(len(q), ncomp)`` of the state
        rows ``q``: the numerical flux over the edges ``(e0, e1)``
        (rows of ``q``) with dual-face normals ``s``, then the boundary
        closure on the row sets ``rows``
        (:meth:`BoundaryCondition.row_sets`).

        The global :meth:`residual` runs it over the whole mesh and
        boundary, and each SPMD rank over its local rows and edges and
        its owned boundary vertices
        (:func:`repro.parallel.spmd.rank_residual`), so every executor
        runs the one flux loop.  ``index`` is an optional pair of
        cached :func:`~repro.sparse.segsum.flat_segment_index` arrays
        for ``e0`` / ``e1``.
        """
        r = self._interior_residual(q[e0], q[e1], e0, e1, s, len(q), index)
        self._add_boundary_residual(q, r, rows)
        return r

    def _interior_residual(self, ql, qr, e0, e1, s, n, index):
        """Net edge flux of each row: the numerical flux between the
        edge states ``ql`` / ``qr``, added to row ``e0`` and
        subtracted from row ``e1``.

        On the compiled tier, when :func:`rusanov_model` allows, the
        Rusanov arithmetic and the scatter run in one C pass over the
        edges.  The numpy composition below is the oracle; equivalence
        is normwise (the compiled kernel's sequential dots re-associate
        the einsum reductions).  Any other flux (Roe), and any input
        the kernel declines (float32 states), runs
        :meth:`_numerical_flux` and two ``segment_sum`` scatters.
        """
        model = rusanov_model(self) if self.engine != "numpy" else None
        if model is not None:
            fused = _kernels.rusanov_scatter(e0, e1, ql, qr, s, n,
                                             model[0], model[1],
                                             self.engine)
            if fused is not None:
                return fused[0] - fused[1]
        f = self._numerical_flux(ql, qr, s)
        i0, i1 = (None, None) if index is None else index
        return segment_sum(e0, f, n, i0) - segment_sum(e1, f, n, i1)

    def _add_boundary_residual(self, q: np.ndarray, r: np.ndarray,
                               rows: tuple | None = None) -> None:
        """Add the boundary fluxes to the residual rows ``r``: the wall
        flux on the wall rows and the numerical flux against the
        frozen freestream on the far-field rows of ``rows``
        (:meth:`BoundaryCondition.row_sets`, the whole boundary by
        default).  Each row appears once in a row set, so plain
        fancy-indexed adds are exact.

        On the compiled tier, when :func:`rusanov_model` allows, both
        closures are one C pass over the row sets
        (:func:`repro.kernels.boundary_closure`), bitwise the numpy
        path below; a Roe far-field flux, and any input the kernel
        declines, runs the numpy path."""
        bc = self.bc
        rows = bc.row_sets() if rows is None else rows
        wall_rows, wall_idx, far_rows, far_idx = rows
        if far_rows.size and self.farfield_state is None:
            raise RuntimeError("farfield_state is not set")
        model = rusanov_model(self) if self.engine != "numpy" else None
        if model is not None and _kernels.boundary_closure(
                q, r, rows, bc.normals, self.farfield_state, *model,
                self.engine):
            return
        if wall_rows.size:
            r[wall_rows] += self._wall_flux(q[wall_rows],
                                            bc.normals[wall_idx])
        if far_rows.size:
            qi = q[far_rows]
            qe = np.broadcast_to(self.farfield_state, qi.shape)
            r[far_rows] += self._numerical_flux(qi, qe, bc.normals[far_idx])

    # -- first-order analytical Jacobian -----------------------------------
    def assemble_jacobian(self, qflat: np.ndarray) -> BSRMatrix:
        """First-order point-block Jacobian (the preconditioner matrix;
        the paper always builds it from the first-order scheme)."""
        return self._jacobian(qflat, None)

    def shifted_jacobian(self, qflat: np.ndarray, cfl: float) -> BSRMatrix:
        """J(q) + (V/dt) I, the matrix of one PTC step."""
        return self._jacobian(qflat, cfl)

    def _jacobian(self, qflat: np.ndarray, cfl: float | None) -> BSRMatrix:
        """J(q), shifted by (V/dt) I of :meth:`timestep_shift` when
        ``cfl`` is given.

        On the compiled tier one C pass per edge computes both flux
        Jacobians and the frozen wave speed, writes the two
        off-diagonal blocks into their slots of the matrix and sums the
        diagonal blocks and the wave speeds the shift is made of —
        bitwise the numpy composition below, the oracle.  It gates on
        the exact flux-Jacobian family, not on the interface flux: a
        Roe residual's preconditioner matrix is this Rusanov Jacobian
        too.  The shift is added to the diagonal blocks before they are
        stored, whole ``shift I`` blocks, zeros included, so every
        value (signed zeros too) is that of ``J.add_block_diagonal``,
        without its copy of the data.
        """
        q = qflat.reshape(self.mesh.num_vertices, self.ncomp)
        s = self.dual.edge_normals
        n = self.mesh.num_vertices
        st = self.structure
        family = flux_family(self) if self.engine != "numpy" else None
        fused = (_kernels.rusanov_jacobian_scatter(
            *self.mesh.edge_endpoints(), st.edge_ij_slots, st.edge_ji_slots,
            q, s, st.nnzb, *family, self.engine)
            if family is not None else None)
        if fused is not None:
            data, diag, lam_sum = fused
        else:
            e0 = self.mesh.edges[:, 0]
            e1 = self.mesh.edges[:, 1]
            jl, jr = rusanov_flux_jacobians(q[e0], q[e1], s,
                                            self._flux_jacobian,
                                            self._wavespeed)
            nc2 = self.ncomp * self.ncomp
            # R_i += F_ij  ->  dR_i/dq_i += jl, dR_i/dq_j += jr
            # R_j -= F_ij  ->  dR_j/dq_j -= jr, dR_j/dq_i -= jl
            diag = (segment_sum(e0, jl, n,
                                self.mesh.edge_scatter_index(0, nc2))
                    - segment_sum(e1, jr, n,
                                  self.mesh.edge_scatter_index(1, nc2)))
        self._add_boundary_jacobian(q, diag)
        if cfl is not None:
            shift = (self.timestep_shift(qflat, cfl) if fused is None
                     else self._shift_from_edge_sums(q, lam_sum, cfl))
            diag += shift[:, None, None] * np.eye(self.ncomp)[None]
        if fused is None:
            return assemble_bsr(st, self.ncomp, diag, off_ij=jr,
                                off_ji=-jl, engine=self.engine)
        data[st.diag_slots] = diag
        return BSRMatrix(indptr=st.indptr, indices=st.indices, data=data,
                         nbcols=n, engine=self.engine)

    def _add_boundary_jacobian(self, q: np.ndarray, diag: np.ndarray) -> None:
        """The boundary closure's diagonal blocks, on the row sets the
        residual's closure reads (:meth:`BoundaryCondition.row_sets`)."""
        bc = self.bc
        wall_rows, wall_idx, far_rows, far_idx = bc.row_sets()
        if wall_rows.size:
            diag[wall_rows] += self._wall_flux_jacobian(q[wall_rows],
                                                        bc.normals[wall_idx])
        if far_rows.size:
            # the left Jacobian of the Rusanov flux against the frozen
            # freestream (the freestream side's own Jacobian is unused)
            qi = q[far_rows]
            qe = np.broadcast_to(self.farfield_state, qi.shape)
            nf = bc.normals[far_idx]
            lam = np.maximum(self._wavespeed(qi, nf), self._wavespeed(qe, nf))
            diag[far_rows] += rusanov_half_jacobian(
                self._flux_jacobian(qi, nf), lam)

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
        acc = (segment_sum(e0, lam, n, self.mesh.edge_scatter_index(0, 1))
               + segment_sum(e1, lam, n, self.mesh.edge_scatter_index(1, 1)))
        return self._shift_from_edge_sums(q, acc, cfl)

    def _shift_from_edge_sums(self, q: np.ndarray, acc: np.ndarray,
                              cfl: float) -> np.ndarray:
        """:meth:`timestep_shift` from its per-vertex edge sums ``acc``
        (updated in place): the boundary faces' wave speeds, then 1/CFL."""
        bc = self.bc
        if bc.vertices.size:
            acc[bc.vertices] += self._wavespeed(q[bc.vertices], bc.normals)
        return acc / cfl

    # -- matrix-free operator ----------------------------------------------
    def jacobian_operator(self, qflat: np.ndarray, *,
                          shift: np.ndarray | None = None,
                          second_order: bool | None = None,
                          base: np.ndarray | None = None
                          ) -> OperatorFromCallable:
        """Matrix-free J(q) v by one-sided finite differences.

        This is the paper's "matrix-free implementation": the true
        (second-order) Jacobian is never assembled; only its action is
        sampled, while the assembled first-order matrix serves as the
        preconditioner.  ``shift`` adds the PTC diagonal (per vertex,
        broadcast over components).  ``base`` is R(q) at this order
        when the caller has it (the driver's step residual); otherwise
        the operator evaluates it.
        """
        if base is None:
            base = self.residual(qflat, second_order=second_order)
        qnorm = float(np.linalg.norm(qflat))
        if shift is not None:
            shift = np.repeat(shift, self.ncomp)

        def matvec(v: np.ndarray) -> np.ndarray:
            vnorm = float(np.linalg.norm(v))
            if vnorm == 0.0:
                return np.zeros_like(v)
            eps = np.sqrt(np.finfo(np.float64).eps) * (1.0 + qnorm) / vnorm
            jv = (self.residual(qflat + eps * v, second_order=second_order)
                  - base) / eps
            if shift is not None:
                jv = jv + (shift * v)
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
