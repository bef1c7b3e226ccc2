"""Partition quality metrics.

These quantify exactly the properties the paper's Fig. 4 discussion
turns on: load balance (idle time at implicit synchronisations), edge
cut (ghost-point scatter volume), subdomain connectivity (number of
neighbour subdomains = messages), and subdomain *connectedness*
(disconnected pieces behave like extra preconditioner blocks).

Cut weights and connectedness are properties of the graph and are read
from it.  Neighbours and interface vertices are properties of the halo:
:func:`partition_quality` reads them from the partition's
:class:`~repro.parallel.spmd.SPMDLayout`, the only derivation of each
rank's ghost and neighbour sets, so the messages it reports are the
ones the executors send and the model prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.traversal import connected_components

if TYPE_CHECKING:
    from repro.parallel.spmd import SPMDLayout

__all__ = ["edge_cut", "load_imbalance", "subdomain_components",
           "PartitionQuality", "partition_quality"]


def edge_cut(graph: Graph, labels: np.ndarray) -> int:
    """Number of (weighted) edges whose endpoints lie in different parts."""
    labels = np.asarray(labels, dtype=np.int64)
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                    np.diff(graph.xadj))
    cut2 = int(graph.ewgt[labels[src] != labels[graph.adjncy]].sum())
    return cut2 // 2


def load_imbalance(labels: np.ndarray, vwgt: np.ndarray | None = None,
                   nparts: int | None = None) -> float:
    """max part weight / mean part weight (1.0 = perfect balance)."""
    labels = np.asarray(labels, dtype=np.int64)
    if nparts is None:
        nparts = int(labels.max()) + 1
    if vwgt is None:
        weights = np.bincount(labels, minlength=nparts).astype(np.float64)
    else:
        weights = np.bincount(labels, weights=np.asarray(vwgt, dtype=np.float64),
                              minlength=nparts)
    mean = weights.sum() / nparts
    return float(weights.max() / mean) if mean > 0 else 1.0


def subdomain_components(graph: Graph, labels: np.ndarray) -> np.ndarray:
    """Number of connected components of each part's induced subgraph
    (0 for an empty part): one labelling of all parts at once, counted
    per part.

    >1 means the part is disconnected — the effect that makes p-MeTiS
    partitions converge slower under block-iterative preconditioning.
    """
    labels = np.asarray(labels, dtype=np.int64)
    comp = connected_components(graph, labels)
    comp_part = np.empty(int(comp.max()) + 1, dtype=np.int64)
    comp_part[comp] = labels  # all vertices of a comp share a label
    return np.bincount(comp_part, minlength=int(labels.max()) + 1)


@dataclass
class PartitionQuality:
    nparts: int
    edge_cut: int
    imbalance: float
    max_components: int
    total_extra_components: int     # sum over parts of (components - 1)
    mean_connectivity: float
    interface_total: int


def partition_quality(graph: Graph, layout: SPMDLayout) -> PartitionQuality:
    """The quality of ``layout``'s partition of ``graph``: the cut and
    the components from the graph, the mean neighbour count from the
    scatter plan's ``pairs`` and the interface from the distinct owned
    rows its ghosts copy."""
    labels = layout.labels
    plan = layout.plan
    comps = subdomain_components(graph, labels)
    return PartitionQuality(
        nparts=layout.nranks,
        edge_cut=edge_cut(graph, labels),
        imbalance=load_imbalance(labels, graph.vwgt),
        max_components=int(comps.max(initial=0)),
        total_extra_components=int(np.maximum(comps - 1, 0).sum()),
        mean_connectivity=float(np.mean(plan.pairs)) if plan.pairs else 0.0,
        interface_total=int(np.unique(plan.ghost_src).size),
    )
