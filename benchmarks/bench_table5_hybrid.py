"""Table 5: hybrid MPI/OpenMP vs pure MPI flux phase."""

from conftest import run_once

from repro.experiments.table5 import run_table5


def test_table5_hybrid(benchmark, record_table):
    result = run_once(benchmark, run_table5)
    record_table("table5_hybrid", result.table())

    t1 = result.column("1 thread(s)")
    t2 = result.column("2 threads(s)")
    m2 = result.column("2 procs(s)")
    rel = result.column("hybrid/mpi2")

    # Both dual-CPU modes beat one CPU per node, everywhere.
    for a, b, c in zip(t1, t2, m2):
        assert b < a and c < a
        # And neither is better than the ideal 2x.
        assert b >= a / 2 * 0.99
    # The hybrid advantage grows with node count (paper: MPI-2 wins or
    # ties at 256 nodes, loses at 2560/3072 as halo redundancy grows).
    assert rel[-1] < rel[0]
    # At the largest count the thread split is at least competitive.
    assert t2[-1] <= m2[-1] * 1.05
