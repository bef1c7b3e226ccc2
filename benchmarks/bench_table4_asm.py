"""Table 4: Additive Schwarz overlap x ILU fill level trade-off."""

from conftest import run_once

from repro.experiments.table4 import run_table4


def test_table4_asm(benchmark, record_table):
    result = run_once(benchmark, run_table4)
    record_table("table4_asm", result.table())

    cells = {}
    for fill, p, ovl, its, t, fr, gf in result.rows:
        cells[(fill, p, ovl)] = (its, t)

    procs = sorted({k[1] for k in cells})
    fills = sorted({k[0] for k in cells})

    # Overlap reduces iterations at every fill level and proc count.
    for k in fills:
        for p in procs:
            assert cells[(k, p, 1)][0] <= cells[(k, p, 0)][0]
            assert cells[(k, p, 2)][0] <= cells[(k, p, 1)][0] + 2
    # Fill reduces iterations (k=2 vs k=0, same overlap).
    for p in procs:
        for ovl in (0, 1, 2):
            assert cells[(2, p, ovl)][0] <= cells[(0, p, ovl)][0]
    # ...but the deepest fill+overlap cell is NOT the fastest: the extra
    # work per iteration outweighs the iteration savings (the paper's
    # central trade-off).
    for p in procs:
        best = min(t for (k, pp, o), (_, t) in cells.items() if pp == p)
        deepest = cells[(2, p, 2)][1]
        assert deepest > best
    # More processors -> shorter time at fixed (fill, overlap).
    for k in fills:
        for ovl in (0, 1, 2):
            assert cells[(k, procs[-1], ovl)][1] < cells[(k, procs[0], ovl)][1]
