"""Regenerate paper tables/figures from the command line.

Usage::

    python -m repro.experiments             # list experiments
    python -m repro.experiments table3      # run one (prints its table)
    python -m repro.experiments all         # run everything (slow)

Measured experiments run for real on this host::

    python -m repro.experiments table3-measured      # seq SPMD solves
    python -m repro.experiments table5-measured --workers 2 --smoke

``--smoke`` shrinks any experiment to its CI-sized variant (fewer
processor counts, smaller mesh, fewer steps).  Benchmark-grade runs
with shape assertions live in ``benchmarks/``; this entry point is the
quick interactive path.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (run_eq_bounds, run_fig1, run_fig2, run_fig3,
                               run_fig4, run_fig5, run_table1, run_table2,
                               run_table3, run_table3_measured, run_table4,
                               run_table5, run_table5_measured)

# A modelled artefact is its ``run_*`` function's defaults, here and in
# ``benchmarks/bench_*.py`` alike.  One split is deliberate: table1 and
# fig3 run the paper's full-size mesh against the unscaled R10000 here,
# while table1's timed wrapper and fig3's ``--smoke`` shrink the mesh
# and the caches 16x together.


def _table1(a):
    for comp in (False, True):
        yield run_table1(compressible=comp)


def _table3_measured(a):
    # Quickstart-sized: one real solve per processor count on the SPMD
    # kernels.
    procs = (2, 4) if a.smoke else (2, 4, 8)
    steps = 2 if a.smoke else 3
    yield run_table3_measured(procs=procs, size="small",
                              max_steps=steps).to_table()


def _table5_measured(a):
    nodes = (2,) if a.smoke else (2, 4)
    sweeps = 2 if a.smoke else 5
    yield run_table5_measured(node_counts=nodes, size="small",
                              sweeps=sweeps, nworkers=a.workers)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fig5(a):
    result, _histories = run_fig5()
    yield result


EXPERIMENTS = {
    "table1": _table1,
    "table2": lambda a: [run_table2()],
    "table3": lambda a: [run_table3().to_table()],
    "table3-measured": _table3_measured,
    "table4": lambda a: [run_table4()],
    "table5": lambda a: [run_table5()],
    "table5-measured": _table5_measured,
    "fig1": lambda a: [run_fig1()],
    "fig2": lambda a: [run_fig2()],
    "fig3": lambda a: [run_fig3()],
    "fig4": lambda a: [run_fig4()],
    "fig5": _fig5,
    "eqbounds": lambda a: [run_eq_bounds()],
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
    for name in names:
        t0 = time.perf_counter()
        for result in EXPERIMENTS[name](args):
            print(result.table())
            print()
        print(f"[{name}: {time.perf_counter() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
