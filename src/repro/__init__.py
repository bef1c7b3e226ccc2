"""PETSc-FUN3D reproduction.

A from-scratch Python implementation of the system described in
"Performance Modeling and Tuning of an Unstructured Mesh CFD
Application" (Gropp, Kaushik, Keyes, Smith; SC 2000): an unstructured
tetrahedral-mesh Euler solver driven by pseudo-transient
Newton-Krylov-Schwarz, together with the memory-centric performance
models, cache/TLB simulation, partitioners, and parallel-execution
models needed to regenerate every table and figure of the paper's
evaluation.  See DESIGN.md for the system inventory and EXPERIMENTS.md
for paper-versus-measured results.

Quickstart::

    from repro import wing_problem, NKSSolver, SolverConfig
    prob = wing_problem(9, 7, 5)
    report = NKSSolver(prob.disc, SolverConfig(matrix_free=True)) \\
        .solve(prob.initial.flat())
    print(report.num_steps, report.final_reduction)
"""

from repro.core import (NKSSolver, SolverConfig, KrylovConfig,
                        PreconditionerConfig, SolveReport)
from repro.euler import (IncompressibleEuler, CompressibleEuler,
                         wing_problem, duct_problem,
                         transonic_bump_problem, FlowProblem,
                         integrate_wall_forces, pressure_coefficient)
from repro.mesh import (Mesh, box_mesh, wing_mesh, bump_mesh,
                        unit_cube_mesh, compute_dual_metrics,
                        apply_orderings)
from repro.partition import (kway_partition, pmetis_partition,
                             partition_quality)
from repro.solvers import gmres, SERController, PTCConfig
from repro.sparse import CSRMatrix, BSRMatrix, ilu_csr, ilu_bsr
from repro.precond import AdditiveSchwarz, ASMConfig

__version__ = "1.0.0"

__all__ = [
    "NKSSolver", "SolverConfig", "KrylovConfig", "PreconditionerConfig",
    "SolveReport",
    "IncompressibleEuler", "CompressibleEuler",
    "wing_problem", "duct_problem", "transonic_bump_problem",
    "FlowProblem", "integrate_wall_forces", "pressure_coefficient",
    "Mesh", "box_mesh", "wing_mesh", "bump_mesh", "unit_cube_mesh",
    "compute_dual_metrics", "apply_orderings",
    "kway_partition", "pmetis_partition", "partition_quality",
    "gmres", "SERController", "PTCConfig",
    "CSRMatrix", "BSRMatrix", "ilu_csr", "ilu_bsr",
    "AdditiveSchwarz", "ASMConfig",
    "__version__",
]
