"""Fig. 4: k-MeTiS-like vs p-MeTiS-like partitioning quality."""

from collections import defaultdict

from conftest import run_once

from repro.experiments.fig4 import run_fig4


def test_fig4_partitioners(benchmark, record_table):
    result = run_once(benchmark, run_fig4)
    record_table("fig4_partitioners", result.table())

    series = defaultdict(dict)
    for name, p, its, t, spd, imb, xc, cut in result.rows:
        series[name][p] = dict(its=its, time=t, speedup=spd, imb=imb, xc=xc)

    k = series["k-metis-like"]
    pm = series["p-metis-like"]
    pmax = max(k)

    # p-metis balances (near-)perfectly; k-way tolerates a few percent.
    assert all(v["imb"] <= 1.04 for v in pm.values())
    # The paper's punchline: at the largest subdomain count the k-way
    # partitions converge faster (fewer iterations), hence better
    # speedup, despite the worse balance.
    assert k[pmax]["its"] <= pm[pmax]["its"]
    assert k[pmax]["speedup"] >= pm[pmax]["speedup"] * 0.98
    # Iteration counts grow with P for both (block-preconditioner law).
    for s in (k, pm):
        ps = sorted(s)
        assert s[ps[-1]]["its"] >= s[ps[0]]["its"]
