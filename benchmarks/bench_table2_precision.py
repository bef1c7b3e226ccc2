"""Table 2: single- vs double-precision preconditioner storage."""

from conftest import run_once

from repro.experiments.table2 import run_table2


def test_table2_precision(benchmark, record_table):
    result = run_once(benchmark, run_table2)
    record_table("table2_precision", result.table())

    tri_ratio = result.column("Tri ratio")
    lin_ratio = result.column("Lin ratio")
    ovl_ratio = result.column("Ovl ratio")
    its_64 = result.column("Its fp64")
    its_pc = result.column("Its fp32-precond")
    its_32 = result.column("Its fp32")

    # The headline claim: the bandwidth-bound triangular solves run
    # almost twice as fast with fp32 factor storage.
    assert all(1.6 < r < 2.1 for r in tri_ratio), tri_ratio
    # The whole linear phase and the overall time improve, less so.
    assert all(r > 1.1 for r in lin_ratio)
    assert all(1.0 < r < 1.6 for r in ovl_ratio)
    # And the iteration counts are not affected by storage precision,
    # at any tier.
    assert its_64 == its_pc == its_32
