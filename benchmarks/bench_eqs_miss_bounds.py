"""Eqs. 1-2: conflict-miss bound validation against the simulator."""

from conftest import run_once

from repro.experiments.eqbounds import run_eq_bounds


def test_eq_bounds(benchmark, record_table):
    result = run_once(benchmark, run_eq_bounds)
    record_table("eq_miss_bounds", result.table())

    betas = result.column("beta (words)")
    sim = result.column("Simulated x misses")
    comp = result.column("Compulsory")
    bound = result.column("Eq. bound")
    ok = result.column("Bound + compulsory >= sim")

    # The bound is valid everywhere.
    assert all(ok)
    # Below capacity the bound is zero and simulated misses are purely
    # compulsory; above capacity conflict misses appear.
    for b, s, c, bd in zip(betas, sim, comp, bound):
        if bd == 0:
            assert s == c, (b, s, c)
        else:
            assert s > c, (b, s, c)
    # Conflict misses grow with the gather span (the knee the paper's
    # interlacing+RCM tuning moves the code to the good side of).
    conflict = [s - c for s, c in zip(sim, comp)]
    assert conflict == sorted(conflict)
