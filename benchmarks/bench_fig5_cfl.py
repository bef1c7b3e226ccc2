"""Fig. 5: initial-CFL effect on pseudo-transient convergence."""

from conftest import run_once

from repro.experiments.fig5 import run_fig5


def test_fig5_cfl(benchmark, record_table):
    result, histories = run_once(benchmark, run_fig5)
    lines = [result.table(), "", "residual histories (||F||/||F0||):"]
    for h in histories:
        lines.append(f"  CFL0={h.cfl0:<6g} " +
                     " ".join(f"{x:.1e}" for x in h.residuals))
    record_table("fig5_cfl", "\n".join(lines))

    # All runs converge on this smooth (shock-free) flow.
    assert all(h.converged for h in histories)
    # Fewer pseudo-timesteps with a more aggressive initial CFL
    # (monotone across the sweep, paper Fig. 5's ordering).
    steps = [h.steps_to_target for h in histories]
    assert all(b <= a for a, b in zip(steps, steps[1:]))
    assert steps[0] > 1.8 * steps[-1]
    # The small-CFL run shows the long induction period: after 5 steps
    # it has reduced the residual far less than the aggressive run.
    r_small = histories[0].residuals[5]
    r_large = histories[-1].residuals[5]
    assert r_small > 50 * r_large
