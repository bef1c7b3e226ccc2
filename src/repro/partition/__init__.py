"""From-scratch mesh partitioners emulating MeTiS's two families.

The paper's Fig. 4 contrasts:

* **k-MeTiS** (``kway_partition`` here): multilevel k-way partitioning
  that tries to keep every subdomain *connected* and its connectivity
  (number of neighbouring subdomains) low, at the price of a few
  percent load imbalance.
* **p-MeTiS** (``pmetis_partition``): recursive bisection that balances
  vertex counts almost perfectly but readily produces *disconnected*
  subdomains — which effectively increases the number of blocks in the
  block-Jacobi/Schwarz preconditioner and degrades its convergence.

Both are reimplemented from scratch (multilevel heavy-edge-matching
coarsening + greedy growing + Fiduccia-Mattheyses-style refinement);
MeTiS itself is not used.
"""

from repro.partition.kway import kway_partition
from repro.partition.bisect import pmetis_partition, bisect_level_set
from repro.partition.coarsen import heavy_edge_matching, coarsen_graph
from repro.partition.refine import fm_refine
from repro.partition.metrics import (
    PartitionQuality,
    edge_cut,
    load_imbalance,
    subdomain_components,
    partition_quality,
    interface_vertices,
)

__all__ = [
    "kway_partition",
    "pmetis_partition",
    "bisect_level_set",
    "heavy_edge_matching",
    "coarsen_graph",
    "fm_refine",
    "PartitionQuality",
    "edge_cut",
    "load_imbalance",
    "subdomain_components",
    "partition_quality",
    "interface_vertices",
]
