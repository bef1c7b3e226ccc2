"""Experiment harnesses: one module per paper table/figure.

Each module exposes a ``run_*`` function that regenerates its table or
figure (as structured rows/series) on scaled-down workloads, plus the
assertions-worthy *shape claims* the reproduction makes.  The
``benchmarks/`` tree wraps these in pytest-benchmark entry points; the
``examples/`` scripts reuse them interactively.  See DESIGN.md Sec. 4
for the experiment index and EXPERIMENTS.md for recorded results.
"""

from repro.experiments.common import (
    ExperimentResult,
    scaled_hierarchy,
    default_wing,
    measured_linear_iterations,
)
from repro.experiments.table1 import run_table1, Table1Row
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import (run_table3, run_fig1,
                                      run_table3_measured,
                                      ScalabilityResult,
                                      MeasuredScalabilityResult)
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5, run_table5_measured
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.eqbounds import run_eq_bounds

__all__ = [
    "ExperimentResult",
    "scaled_hierarchy",
    "default_wing",
    "measured_linear_iterations",
    "run_table1", "Table1Row",
    "run_table2",
    "run_table3", "run_fig1", "run_table3_measured",
    "ScalabilityResult", "MeasuredScalabilityResult",
    "run_table4",
    "run_table5", "run_table5_measured",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_eq_bounds",
]
