"""Table 3: scalability bottlenecks and the efficiency factorisation."""

from conftest import run_once

from repro.experiments.table3 import run_table3


def test_table3_scalability(benchmark, record_table):
    sc = run_once(benchmark, run_table3)
    result = sc.to_table()
    record_table("table3_scalability", result.table())

    its = result.column("Its")
    eta_alg = result.column("eta_alg")
    eta_impl = result.column("eta_impl")
    eta_ovl = result.column("eta_ovl")
    pct_scat = result.column("%scat")
    pct_red = result.column("%red")
    mb_it = result.column("MB/it")
    times = result.column("Time(s)")

    # Iterations grow with subdomain count (the measured eta_alg story:
    # paper 22 -> 29 from 128 -> 1024 nodes).
    assert its[-1] > its[0]
    assert eta_alg[-1] < 0.95
    # eta factors multiply to the overall efficiency.
    for a, i, o in zip(eta_alg, eta_impl, eta_ovl):
        assert abs(a * i - o) < 0.02
    # Times still fall with more processors (speedup > 1 throughout).
    assert all(t2 < t1 for t1, t2 in zip(times, times[1:]))
    # Communication volume per iteration grows with P (paper: 2.0 ->
    # 5.3 GB), and so does the scatter share of time (3% -> 6%).
    assert mb_it[-1] > 1.5 * mb_it[0]
    assert pct_scat[-1] > pct_scat[0]
    # Global reductions stay a minor cost (paper: <= 5%).
    assert all(p < 15 for p in pct_red)
