"""Per-rank operation counts derived from a partition's SPMD layout.

Each rank's per-phase flop and byte counts follow from what it owns in
:class:`~repro.parallel.spmd.SPMDLayout` — the same owned vertices and
local edge sets the executors compute on:

* **flux phase** — every edge with an owned endpoint (cut edges are
  computed on *both* sides: the halo redundancy that also drives the
  hybrid-model comparison of Table 5);
* **SpMV / Jacobian** — the local block rows: one diagonal block per
  owned vertex plus two off-diagonal blocks per incident edge;
* **preconditioner** — ILU factor traffic, scaled by a fill ratio and
  by the factor storage precision (Table 2's knob).

These counts are machine-independent; :mod:`repro.parallel.simulate`
turns them into seconds with a MachineSpec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.spmd import SPMDLayout

__all__ = ["RankWork", "build_rank_work"]

# Flop cost per edge flux (Rusanov, per component) — matches
# EdgeFVDiscretization.residual_flops's per-edge constant.
_FLUX_FLOPS_PER_EDGE_COMP = 14
_FLUX_FLOPS_PER_EDGE_BASE = 14
_VALUE_BYTES = 8            # float64 states, Jacobian and vectors
_INDEX_BYTES = 4


@dataclass
class RankWork:
    """Operation counts for one rank."""

    rank: int
    owned_vertices: int
    local_edges: int            # edges with >= 1 owned endpoint
    interior_edges: int         # both endpoints owned
    halo_edges: int             # cut edges (computed redundantly)
    ncomp: int
    fill_ratio: float = 2.0     # ILU(k) nnz / A nnz
    precond_value_bytes: int = 8

    # -- flux phase ------------------------------------------------------
    @property
    def flux_flops(self) -> int:
        per_edge = (_FLUX_FLOPS_PER_EDGE_BASE
                    + _FLUX_FLOPS_PER_EDGE_COMP * self.ncomp)
        return self.local_edges * per_edge

    @property
    def flux_traffic(self) -> int:
        """Compulsory bytes: states + normals + residual in/out."""
        per_edge = (2 * _INDEX_BYTES            # endpoints
                    + 3 * _VALUE_BYTES)         # normal
        per_vertex = 3 * self.ncomp * _VALUE_BYTES  # q, r read+write
        return self.local_edges * per_edge + self.owned_vertices * per_vertex

    # -- Jacobian blocks owned by this rank --------------------------------
    @property
    def local_block_nnz(self) -> int:
        return self.owned_vertices + 2 * self.interior_edges + self.halo_edges

    @property
    def jacobian_scalar_nnz(self) -> int:
        return self.local_block_nnz * self.ncomp * self.ncomp

    # -- per-Krylov-iteration kernels ---------------------------------------
    @property
    def spmv_flops(self) -> int:
        return 2 * self.jacobian_scalar_nnz

    @property
    def spmv_traffic(self) -> int:
        return (self.jacobian_scalar_nnz * _VALUE_BYTES
                + self.local_block_nnz * _INDEX_BYTES
                + 3 * self.owned_vertices * self.ncomp * _VALUE_BYTES)

    @property
    def pcapply_flops(self) -> int:
        return int(2 * self.fill_ratio * self.jacobian_scalar_nnz)

    @property
    def pcapply_traffic(self) -> int:
        """Triangular-solve traffic: factor values at the *storage*
        precision (the Table 2 lever) plus vector in/out."""
        return int(self.fill_ratio * self.jacobian_scalar_nnz
                   * self.precond_value_bytes
                   + self.fill_ratio * self.local_block_nnz * _INDEX_BYTES
                   + 4 * self.owned_vertices * self.ncomp * _VALUE_BYTES)

    @property
    def krylov_vector_flops(self) -> int:
        """Axpys + dots of one GMRES iteration (~restart/2 vectors live);
        approximated as 4 vector ops over the owned unknowns."""
        return 8 * self.owned_vertices * self.ncomp

    @property
    def krylov_vector_traffic(self) -> int:
        return 4 * 2 * self.owned_vertices * self.ncomp * _VALUE_BYTES

    # -- preconditioner setup ------------------------------------------------
    @property
    def pcsetup_flops(self) -> int:
        """ILU factorisation ~ fill^2 x nnz block ops."""
        return int(2 * self.fill_ratio**2 * self.jacobian_scalar_nnz
                   * self.ncomp)

    @property
    def pcsetup_traffic(self) -> int:
        return int(3 * self.fill_ratio * self.jacobian_scalar_nnz
                   * _VALUE_BYTES)


def build_rank_work(layout: SPMDLayout, ncomp: int, *,
                    fill_ratio: float = 2.0,
                    precond_value_bytes: int = 8) -> list[RankWork]:
    """Per-rank work of a partition, read from its SPMD layout: the
    owned vertices and local edge sets the executors run on."""
    works = []
    for rd in layout.ranks:
        local = int(rd.edge_ids.size)
        interior = int(np.count_nonzero(
            (rd.local_edges < rd.n_owned).all(axis=1)))
        works.append(RankWork(rank=rd.rank,
                              owned_vertices=rd.n_owned,
                              local_edges=local,
                              interior_edges=interior,
                              halo_edges=local - interior,
                              ncomp=ncomp,
                              fill_ratio=fill_ratio,
                              precond_value_bytes=precond_value_bytes))
    return works
