"""Hybrid MPI/OpenMP node model (paper Sec. 2.5, Table 5).

Table 5 compares three ways to run the *flux phase* (compute-bound, no
communication) on N two-processor nodes:

* **1 proc/node** — baseline: N subdomains, one CPU each;
* **2 OpenMP threads/node** — still N subdomains; the edge loop is
  split between the node's two CPUs.  Near-2x, minus a thread overhead
  for the redundant work arrays OpenMP (v1, no vector-reduce) forces;
* **2 MPI procs/node** — 2N subdomains.  Each CPU gets half the owned
  work, but the subdomains are smaller so the *halo* (cut edges
  computed redundantly on both sides) is a larger fraction — and that
  fraction grows with N, which is exactly why MPI loses at 3072 nodes
  (40s vs 33s) after being competitive at 256 (258s vs 261s).

The halo fractions come from *real* partitions at both subdomain
counts; only the per-edge cost is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.rankwork import build_rank_work
from repro.parallel.spmd import SPMDLayout
from repro.perfmodel.machines import MachineSpec
from repro.perfmodel.time_model import predict_kernel_time

__all__ = ["HybridComparison", "hybrid_flux_times"]


@dataclass
class HybridComparison:
    nodes: int
    t_mpi_1: float          # 1 process/node
    t_hybrid_2: float       # 2 OpenMP threads/node
    t_mpi_2: float          # 2 processes/node

    def row(self) -> list:
        return [self.nodes, self.t_mpi_1, self.t_hybrid_2,
                self.t_mpi_1, self.t_mpi_2]


def _max_flux_time(works, machine: MachineSpec, scale: float = 1.0) -> float:
    return max(predict_kernel_time(w.flux_flops * scale,
                                   w.flux_traffic * scale, machine)
               for w in works)


def hybrid_flux_times(edges: np.ndarray, labels_nodes: np.ndarray,
                      labels_2x: np.ndarray, machine: MachineSpec, *,
                      ncomp: int = 4, flux_evals: int = 1,
                      thread_overhead: float = 0.08) -> HybridComparison:
    """Flux-phase wall times under the three execution models.

    ``labels_nodes`` partitions the mesh (its ``edges``) into N
    subdomains (one per node), ``labels_2x`` into 2N (one per
    processor); each is priced on its SPMD layout.
    ``thread_overhead`` is the OpenMP redundant-array/merge cost as a
    fraction of the ideal split (paper Sec. 2.5's 'some redundant
    work').
    """
    nnodes = int(labels_nodes.max()) + 1
    n2 = int(labels_2x.max()) + 1
    if n2 != 2 * nnodes:
        raise ValueError("labels_2x must have exactly twice the parts")

    works_1 = build_rank_work(SPMDLayout.build(edges, labels_nodes), ncomp)
    works_2 = build_rank_work(SPMDLayout.build(edges, labels_2x), ncomp)

    # 1 process/node: one CPU does the whole subdomain.
    t1 = _max_flux_time(works_1, machine, flux_evals)
    # 2 threads/node: the same subdomain split over 2 CPUs, with the
    # OpenMP merge overhead (the flux loop shares the node's memory,
    # and this phase is compute-bound, so the split is near-ideal).
    t_hybrid = t1 / 2.0 * (1.0 + thread_overhead)
    # 2 MPI processes/node: the 2N-way partition; each CPU computes its
    # own (smaller but halo-heavier) subdomain.
    t2 = _max_flux_time(works_2, machine, flux_evals)
    return HybridComparison(nodes=nnodes, t_mpi_1=t1, t_hybrid_2=t_hybrid,
                            t_mpi_2=t2)
