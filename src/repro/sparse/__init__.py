"""From-scratch sparse linear algebra substrate.

This package reimplements, in numpy, the pieces of PETSc that
PETSc-FUN3D exercises: point CSR (AIJ) and block CSR (BAIJ) matrices
with their sparse matrix-vector products, ILU(k) incomplete
factorisation (scalar and block), level-scheduled sparse triangular
solves, and reduced-precision factor storage (the paper's Table 2
memory-bandwidth optimisation).  The block kernels have compiled twins
in :mod:`repro.kernels`; the scalar ones are numpy only.

scipy.sparse appears only in the test suite as an oracle.
"""

from repro.sparse.csr import CSRMatrix
from repro.sparse.bsr import BSRMatrix
from repro.sparse.layouts import (
    BlockStructure,
    block_structure_from_edges,
    assemble_bsr,
    field_split_csr_from_bsr,
)
from repro.sparse.ilu import (ilu_symbolic, ilu_symbolic_ref, ILUFactorCSR,
                              ILUFactorBSR, ilu_csr, ilu_bsr, ilu_csr_ref,
                              ilu_bsr_ref, EliminationSchedule,
                              compile_elimination_schedule)
from repro.sparse.trisolve import level_schedule, level_schedule_ref
from repro.sparse.precision import PrecisionPolicy

__all__ = [
    "CSRMatrix",
    "BSRMatrix",
    "BlockStructure",
    "block_structure_from_edges",
    "assemble_bsr",
    "field_split_csr_from_bsr",
    "ilu_symbolic",
    "ilu_symbolic_ref",
    "ilu_csr",
    "ilu_bsr",
    "ilu_csr_ref",
    "ilu_bsr_ref",
    "EliminationSchedule",
    "compile_elimination_schedule",
    "ILUFactorCSR",
    "ILUFactorBSR",
    "level_schedule",
    "level_schedule_ref",
    "PrecisionPolicy",
]
