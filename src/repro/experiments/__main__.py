"""Regenerate the paper's tables and figures from the command line.

Usage::

    python -m repro.experiments             # list experiments
    python -m repro.experiments table3      # print one, check its claims
    python -m repro.experiments all         # every experiment (slow)

A name's stdout is exactly the committed ``benchmarks/results/NAME.txt``
(``python -m repro.experiments fig4 > benchmarks/results/fig4.txt``
regenerates it) and its run time goes to stderr.  The artefact's
``check_*`` runs next; a broken shape claim is named on stderr and the
exit code is 1.  The measured experiments time real kernels on the
host running them and have no committed file and no check::

    python -m repro.experiments table3-measured      # seq SPMD solves
    python -m repro.experiments table5-measured --workers 2 --smoke

``--smoke`` is the CI-sized variant of table1 and fig3 (mesh and R10000
caches shrunk 16x together) and of the measured experiments (fewer
counts, steps and sweeps); every other name ignores it.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (ablations, eqbounds, fig2, fig3, fig4, fig5,
                               table1, table2, table3, table4, table5)
from repro.experiments.common import ClaimError

# The CI-sized Table 1 / Fig. 3: a 16x smaller mesh against 16x smaller
# caches keeps the cache-to-working-set ratio, hence the miss behaviour.
_SMOKE_LAYOUT = dict(dims=(16, 10, 8), cache_scale=16)


def _table1(a):
    kw = _SMOKE_LAYOUT if a.smoke else {}
    return [table1.run_table1(compressible=comp, **kw)
            for comp in (False, True)]


def _fig3(a):
    return [fig3.run_fig3(**(_SMOKE_LAYOUT if a.smoke else {}))]


def _table3_measured(a):
    # Quickstart-sized: one real solve per processor count on the SPMD
    # kernels.
    procs = (2, 4) if a.smoke else (2, 4, 8)
    steps = 2 if a.smoke else 3
    return [table3.run_table3_measured(procs=procs,
                                       max_steps=steps).to_table()]


def _table5_measured(a):
    nodes = (2,) if a.smoke else (2, 4)
    sweeps = 2 if a.smoke else 5
    return [table5.run_table5_measured(node_counts=nodes, sweeps=sweeps,
                                       nworkers=a.workers)]


def _default(run):
    """The artefact as its ``run_*`` defaults define it."""
    return lambda a: [run()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: name -> (run, check).  ``run(args)`` returns the artefact's tables in
#: print order; ``check(result)`` raises ClaimError on a table that
#: breaks a paper claim (None for the measured wall-clock experiments).
EXPERIMENTS = {
    "table1": (_table1, table1.check_table1),
    "table2": (_default(table2.run_table2), table2.check_table2),
    "table3": (lambda a: [table3.run_table3().to_table()],
               table3.check_table3),
    "table3-measured": (_table3_measured, None),
    "table4": (_default(table4.run_table4), table4.check_table4),
    "table5": (_default(table5.run_table5), table5.check_table5),
    "table5-measured": (_table5_measured, None),
    "fig1": (_default(table3.run_fig1), table3.check_fig1),
    "fig2": (_default(fig2.run_fig2), fig2.check_fig2),
    "fig3": (_fig3, fig3.check_fig3),
    "fig4": (_default(fig4.run_fig4), fig4.check_fig4),
    "fig5": (_default(fig5.run_fig5), fig5.check_fig5),
    "eqbounds": (_default(eqbounds.run_eq_bounds), eqbounds.check_eq_bounds),
    "ablation-orderings": (_default(ablations.run_edge_orderings),
                           ablations.check_edge_orderings),
    "ablation-imbalance": (_default(ablations.run_imbalance),
                           ablations.check_imbalance),
    "ablation-matrix-free": (_default(ablations.run_matrix_free),
                             ablations.check_matrix_free),
    "ablation-jacobian-lag": (_default(ablations.run_jacobian_lag),
                              ablations.check_jacobian_lag),
    "ablation-rasm": (_default(ablations.run_rasm), ablations.check_rasm),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment", nargs="?",
                        help="which experiment to run "
                             "(one of the registered names, or 'all')")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized variant (smaller counts/steps)")
    parser.add_argument("--workers", type=_positive_int, default=2,
                        help="worker processes of table5-measured's "
                             "process pool (default 2)")
    args = parser.parse_args(argv)

    if args.experiment is None or (args.experiment != "all"
                                   and args.experiment not in EXPERIMENTS):
        # Usage error, not success: scripts (and CI) that misspell a
        # subcommand must fail loudly, so the listing goes to stderr
        # and the exit code matches argparse's usage-error convention.
        if args.experiment is not None:
            print(f"unknown experiment: {args.experiment!r}",
                  file=sys.stderr)
        print("available experiments:", file=sys.stderr)
        for name in sorted(EXPERIMENTS):
            print(f"  {name}", file=sys.stderr)
        print("  all", file=sys.stderr)
        return 2

    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    failed = False
    for i, name in enumerate(names):
        run, check = EXPERIMENTS[name]
        t0 = time.perf_counter()
        results = run(args)
        if i:
            print()
        print("\n\n".join(r.table() for r in results), flush=True)
        for result in results if check is not None else ():
            try:
                check(result)
            except ClaimError as exc:
                print(f"{name}: claim failed: {exc}", file=sys.stderr)
                failed = True
        print(f"[{name}: {time.perf_counter() - t0:.1f}s]", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
