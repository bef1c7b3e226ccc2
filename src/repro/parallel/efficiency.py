"""The paper's efficiency factorisation eta_overall = eta_alg x eta_impl.

Given runs at several processor counts (iteration counts + execution
times, relative to the smallest count as reference):

* ``speedup      = T_ref / T_P`` — time at the reference count over time at P;
* ``eta_overall  = speedup / (P / P_ref)`` — parallel efficiency;
* ``eta_alg      = its_ref / its_P`` — degradation purely from the
  preconditioner weakening as subdomains multiply (measured, not
  modelled: Table 3 shows 22 -> 29 iterations from 128 -> 1024);
* ``eta_impl     = eta_overall / eta_alg`` — everything else: load
  imbalance (implicit syncs), scatters, reductions, hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EfficiencyRow", "efficiency_decomposition"]


@dataclass
class EfficiencyRow:
    nprocs: int
    its: int
    time: float
    speedup: float
    eta_overall: float
    eta_alg: float
    eta_impl: float

    def row(self) -> list:
        return [self.nprocs, self.its, self.time, round(self.speedup, 2),
                round(self.eta_overall, 2), round(self.eta_alg, 2),
                round(self.eta_impl, 2)]


def efficiency_decomposition(runs: list[tuple[int, int, float]]
                             ) -> list[EfficiencyRow]:
    """``runs`` is a list of (nprocs, iterations, time), any order;
    the smallest nprocs entry is the reference."""
    if not runs:
        return []
    runs = sorted(runs)
    p0, its0, t0 = runs[0]
    out = []
    for p, its, t in runs:
        speedup = t0 / t if t > 0 else float("inf")
        eta_overall = speedup / (p / p0)
        eta_alg = its0 / its if its > 0 else float("inf")
        eta_impl = eta_overall / eta_alg if eta_alg > 0 else 0.0
        out.append(EfficiencyRow(nprocs=p, its=its, time=t, speedup=speedup,
                                 eta_overall=eta_overall, eta_alg=eta_alg,
                                 eta_impl=eta_impl))
    return out
