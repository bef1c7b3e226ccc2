"""Partition quality metrics.

These quantify exactly the properties the paper's Fig. 4 discussion
turns on: load balance (idle time at implicit synchronisations), edge
cut (ghost-point scatter volume), subdomain connectivity (number of
neighbour subdomains = messages), and subdomain *connectedness*
(disconnected pieces behave like extra preconditioner blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.traversal import connected_components

__all__ = ["edge_cut", "load_imbalance", "subdomain_components",
           "interface_vertices", "PartitionQuality", "partition_quality"]


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


def interface_vertices(graph: Graph, labels: np.ndarray) -> np.ndarray:
    """Per part: number of owned vertices with a neighbour in another
    part (the vertices whose values must be scattered each iteration)."""
    labels = np.asarray(labels, dtype=np.int64)
    nparts = int(labels.max()) + 1
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                    np.diff(graph.xadj))
    on_cut = labels[src] != labels[graph.adjncy]
    boundary = np.unique(src[on_cut])
    return np.bincount(labels[boundary], minlength=nparts)


def subdomain_connectivity(graph: Graph, labels: np.ndarray) -> np.ndarray:
    """Per part: number of distinct neighbouring parts (message count)."""
    labels = np.asarray(labels, dtype=np.int64)
    nparts = int(labels.max()) + 1
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                    np.diff(graph.xadj))
    cut = labels[src] != labels[graph.adjncy]
    pairs = np.unique(np.stack([labels[src[cut]], labels[graph.adjncy[cut]]],
                               axis=1), axis=0)
    return np.bincount(pairs[:, 0], minlength=nparts)


@dataclass
class PartitionQuality:
    nparts: int
    edge_cut: int
    imbalance: float
    max_components: int
    total_extra_components: int     # sum over parts of (components - 1)
    mean_connectivity: float
    interface_total: int

    def row(self) -> dict[str, float]:
        return {
            "nparts": self.nparts,
            "edge_cut": self.edge_cut,
            "imbalance": self.imbalance,
            "max_components": self.max_components,
            "extra_components": self.total_extra_components,
            "mean_connectivity": self.mean_connectivity,
            "interface_vertices": self.interface_total,
        }


def partition_quality(graph: Graph, labels: np.ndarray) -> PartitionQuality:
    comps = subdomain_components(graph, labels)
    conn = subdomain_connectivity(graph, labels)
    return PartitionQuality(
        nparts=int(np.asarray(labels).max()) + 1,
        edge_cut=edge_cut(graph, labels),
        imbalance=load_imbalance(labels, graph.vwgt),
        max_components=int(comps.max(initial=0)),
        total_extra_components=int(np.maximum(comps - 1, 0).sum()),
        mean_connectivity=float(conn.mean()) if conn.size else 0.0,
        interface_total=int(interface_vertices(graph, labels).sum()),
    )
