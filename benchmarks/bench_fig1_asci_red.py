"""Fig. 1: fixed-size scaling metrics on ASCI Red."""

from conftest import run_once

from repro.experiments.table3 import run_fig1


def test_fig1_asci_red(benchmark, record_table):
    result = run_once(benchmark, run_fig1)
    record_table("fig1_asci_red", result.table())

    vtx = result.column("Vtx/proc")
    tps = result.column("Time/step(s)")
    gfl = result.column("Gflop/s")
    eff = result.column("Overall eff.")
    spd = result.column("Speedup")

    # Vertices per processor fall as 1/P (the fixed-size premise).
    assert vtx[0] > 16 * vtx[-1] * 0.99
    # Time per step keeps falling; aggregate Gflop/s keeps rising.
    assert all(b < a for a, b in zip(tps, tps[1:]))
    assert all(b > a for a, b in zip(gfl, gfl[1:]))
    # Efficiency degrades monotonically-ish but speedup keeps growing
    # (paper: 91% implementation efficiency 256 -> 2048; we cover a
    # wider relative range so the tail efficiency is lower).
    assert eff[-1] < eff[0]
    assert spd[-1] > spd[-2]
