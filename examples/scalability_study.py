#!/usr/bin/env python3
"""Parallel scalability study (the paper's Table 3 / Fig. 1 analysis).

Runs the real NKS solver with increasing subdomain counts (measuring
the algorithmic iteration growth), then prices each run on the ASCI
Red machine model to decompose the parallel efficiency into
eta_alg x eta_impl and locate the scalability bottlenecks.

Run:  python examples/scalability_study.py
"""

from repro.experiments.table3 import run_table3


def main() -> None:
    sc = run_table3()
    print(sc.to_table().table())
    print()
    print(sc.to_fig1_table().table())

    last = sc.efficiency[-1]
    pct = sc.points[-1].timeline.category_percent()
    print(f"\nAt {last.nprocs} processors:")
    print(f"  eta_overall = {last.eta_overall:.2f} "
          f"= eta_alg ({last.eta_alg:.2f}) x eta_impl ({last.eta_impl:.2f})")
    print(f"  time shares: scatter {pct['scatter']:.1f}%, implicit sync "
          f"{pct['implicit_sync']:.1f}%, reductions {pct['reductions']:.1f}%")
    print("\nThe paper's reading holds: iteration growth (eta_alg) and the "
          "ghost-point\nscatters + load-imbalance waits (eta_impl) are what "
          "retard scaling —\nglobal reductions are harmless.")


if __name__ == "__main__":
    main()
