"""Fig. 2: Gflop/s and execution time on three machine models."""

from collections import defaultdict

from conftest import run_once

from repro.experiments.fig2 import run_fig2


def test_fig2_three_machines(benchmark, record_table):
    result = run_once(benchmark, run_fig2)
    record_table("fig2_three_machines", result.table())

    series = defaultdict(list)
    for machine, p, gflops, t, ig, it in result.rows:
        series[machine].append((p, gflops, t))

    assert len(series) == 3
    for machine, pts in series.items():
        ps = [p for p, _, _ in pts]
        gf = [g for _, g, _ in pts]
        ts = [t for _, _, t in pts]
        # Flop rate grows near-linearly; time falls, sub-linearly.
        assert all(b > a for a, b in zip(gf, gf[1:])), machine
        assert all(b < a for a, b in zip(ts, ts[1:])), machine
        # Sub-ideal: time does not drop in exact proportion to P.
        assert ts[-1] > ts[0] / (ps[-1] / ps[0]), machine

    # Per-processor ranking: the T3E's faster processor/network makes it
    # quickest per node; Blue Pacific's weak memory system slowest.
    at8 = {m: dict((p, t) for p, _, t in pts)[8]
           for m, pts in series.items()}
    t3e = [v for k, v in at8.items() if "T3E" in k][0]
    blue = [v for k, v in at8.items() if "Blue" in k][0]
    assert t3e < blue
