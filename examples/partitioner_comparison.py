#!/usr/bin/env python3
"""Partitioner comparison (the paper's Fig. 4).

Partitions the same mesh with the k-MeTiS-like multilevel k-way
partitioner and the p-MeTiS-like strict-balance recursive bisection,
compares partition quality (balance, cut, connectedness), then runs
the real solver on both partitions to show the convergence difference
that makes k-way the better choice at scale.

Run:  python examples/partitioner_comparison.py
"""

from repro.core.reporting import format_table
from repro.experiments.common import default_wing, measured_linear_iterations
from repro.parallel import SPMDLayout
from repro.partition import (kway_partition, partition_quality,
                             pmetis_partition)


def main() -> None:
    prob = default_wing("medium")
    graph = prob.mesh.vertex_graph()
    print(prob.mesh.summary(), "\n")

    rows = []
    for p in (4, 16, 32):
        for name, fn in (("k-metis-like", kway_partition),
                         ("p-metis-like", pmetis_partition)):
            labels = fn(graph, p)
            q = partition_quality(
                graph, SPMDLayout.build(prob.mesh.edges, labels))
            its, _ = measured_linear_iterations(prob, p, labels=labels,
                                                fill_level=0, max_steps=4)
            rows.append([p, name, round(q.imbalance, 3), q.edge_cut,
                         q.total_extra_components,
                         round(q.mean_connectivity, 1), sum(its)])

    print(format_table(
        ["parts", "partitioner", "imbalance", "edge cut", "extra comps",
         "connectivity", "NKS linear its"],
        rows, title="Partition quality vs. NKS convergence"))
    print("\np-MeTiS-style balances perfectly but fragments/raggedises "
          "subdomains as the\npart count grows; the block preconditioner "
          "then converges slower — the\npaper's Fig. 4 crossover.")


if __name__ == "__main__":
    main()
