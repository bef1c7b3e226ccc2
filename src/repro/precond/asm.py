"""(Restricted) Additive Schwarz preconditioner with ILU(k) subdomains.

The preconditioner of the paper's Table 4:

    M^{-1} = sum_s  R_s^T  (A_s)^{-1}  R_s        (standard ASM)
    M^{-1} = sum_s  R~_s^T (A_s)^{-1}  R_s        (restricted, RASM)

where ``R_s`` restricts to subdomain s *with* overlap, ``R~_s``
prolongates only the owned (zero-overlap) rows, and ``A_s^{-1}`` is
approximated by ILU(k) on the overlapped submatrix.  RASM [Cai &
Sarkis] needs one communication phase per application instead of two
and usually converges slightly faster — it is what PETSc-FUN3D ran.

With ``overlap=0`` both variants reduce to block Jacobi.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro import kernels as _kernels
from repro.graph.adjacency import Graph, graph_from_csr
from repro.graph.traversal import expand_overlap
from repro.precond.subdomain import SubdomainSolver
from repro.sparse.bsr import BSRMatrix
from repro.sparse.csr import CSRMatrix
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["ASMVariant", "ASMConfig", "AdditiveSchwarz"]


class ASMVariant(str, Enum):
    STANDARD = "asm"
    RESTRICTED = "rasm"


@dataclass
class ASMConfig:
    overlap: int = 0
    fill_level: int = 0
    variant: ASMVariant = ASMVariant.RESTRICTED
    storage_dtype: type = np.float64
    engine: str = "numpy"   # kernel tier for the subdomain trisolves

    def __post_init__(self) -> None:
        if self.overlap < 0:
            raise ValueError("overlap must be >= 0")
        if self.fill_level < 0:
            raise ValueError("fill_level must be >= 0")
        self.variant = ASMVariant(self.variant)


class AdditiveSchwarz:
    """ASM/RASM preconditioner over a given (block-)row partition.

    Parameters
    ----------
    labels:
        Partition label per (block) row, values in ``0..nparts-1``;
        this is the output of :mod:`repro.partition`.
    config:
        Overlap / fill / variant / factor-storage-precision knobs.
    graph:
        Adjacency graph used to grow the overlap.  If omitted it is
        derived from the matrix sparsity at setup time (identical for
        our stencil matrices, but passing the mesh graph avoids the
        recomputation).
    recorder:
        Optional :class:`repro.telemetry.TraceRecorder`.  ``setup``
        records a ``precond_setup`` span; every ``solve`` records one
        ``trisolve`` span per subdomain (rank = subdomain index) plus
        the max-over-subdomains wait, so the load imbalance of the
        per-rank triangular solves is observed directly.
    """

    def __init__(self, labels: np.ndarray, config: ASMConfig | None = None,
                 graph: Graph | None = None,
                 recorder=NULL_RECORDER) -> None:
        self.labels = np.asarray(labels, dtype=np.int64)
        self.config = config or ASMConfig()
        self._graph = graph
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.subdomains: list[SubdomainSolver] = []
        self._bs = 1
        self._n = self.labels.size
        #: (kind, bs, indptr, indices) of the matrix the subdomains were
        #: cut from; a refresh is numeric-only while it still matches
        self._pattern: tuple | None = None

    # -- setup ----------------------------------------------------------
    def setup(self, a: CSRMatrix | BSRMatrix) -> "AdditiveSchwarz":
        """Extract and factor every (overlapped) subdomain of ``a``.

        Calling ``setup`` again on the same instance with a matrix of
        the previous sparsity (the Newton-refresh case) reuses the
        partition, overlap expansion, slot maps and symbolic ILU and
        redoes only the numeric factorisation, into the factors' own
        arrays: a ``sd.factor`` held across the call is not a snapshot.
        A matrix of any other sparsity is set up cold, exactly as a
        fresh instance would.

        A set-up that raises (a singular or zero pivot) leaves no
        subdomain behind, half-written or stale: ``solve`` raises until
        the next ``setup``, which is cold.
        """
        with self.recorder.span("precond_setup"):
            try:
                self._setup(a)
            except BaseException:
                self.subdomains, self._pattern = [], None
                raise
        return self

    def _setup(self, a: CSRMatrix | BSRMatrix) -> None:
        if isinstance(a, BSRMatrix):
            nbrows = a.nbrows
            self._bs = a.bs
        else:
            nbrows = a.nrows
            self._bs = 1
        if nbrows != self._n:
            raise ValueError("label count does not match matrix rows")
        if self.subdomains and self._same_pattern(a):
            # Refresh path (same sparsity, new Jacobian values): keep
            # the subdomain index sets, slot maps and symbolic ILU
            # patterns — and with them, on the numpy tier, the
            # elimination schedules — and redo only the numeric
            # factorisation, one subdomain at a time into its own
            # factor: at most one subdomain's transient fp64 result is
            # alive beside the factor set.
            for sd in self.subdomains:
                sd.refactor(a)
            return
        graph = self._graph
        if graph is None:
            graph = graph_from_csr(a.indptr, a.indices)
        nparts = int(self.labels.max()) + 1 if self.labels.size else 0
        self.subdomains = []
        for s in range(nparts):
            core = np.where(self.labels == s)[0]
            if core.size == 0:
                continue
            rows = expand_overlap(graph, core, self.config.overlap)
            owned = np.isin(rows, core, assume_unique=True)
            self.subdomains.append(SubdomainSolver.build(
                a, rows, owned, self.config.fill_level,
                storage_dtype=self.config.storage_dtype,
                engine=self.config.engine))
        self._pattern = (type(a), self._bs, a.indptr, a.indices)

    def _same_pattern(self, a: CSRMatrix | BSRMatrix) -> bool:
        """Whether ``a`` has the sparsity the subdomains were cut from:
        an identity fast path on the pattern arrays with an
        ``np.array_equal`` fallback, as the SPMD gather cache does."""
        kind, bs, indptr, indices = self._pattern
        if type(a) is not kind or self._bs != bs:
            return False
        if indptr is a.indptr and indices is a.indices:
            return True
        return (np.array_equal(indptr, a.indptr)
                and np.array_equal(indices, a.indices))

    # -- application ----------------------------------------------------
    def solve(self, r: np.ndarray) -> np.ndarray:
        """Apply M^{-1} r.

        Each subdomain gathers its local vector with one ``take`` of its
        flat element index, makes one ``factor.solve`` and adds the
        owned (restricted) or all (standard) entries back with one flat
        add; the kernel engine is resolved once per apply.
        """
        if not self.subdomains:
            raise RuntimeError("setup() has not been called")
        rec = self.recorder
        rf = np.asarray(r, dtype=np.float64).reshape(self._n * self._bs)
        z = np.zeros_like(rf)
        restricted = self.config.variant is ASMVariant.RESTRICTED
        backend = _kernels.backend_for(self.config.engine)
        per_rank_s = [0.0] * len(self.subdomains)
        for s, sd in enumerate(self.subdomains):
            # Subdomain index = would-be MPI rank: per-subdomain spans
            # expose the triangular-solve load imbalance.
            with rec.span("trisolve", rank=s) as sp:
                local = sd.factor.solve(rf.take(sd.flat), backend)
                # the flat indices are unique, so plain fancy-indexed
                # adds are exact (and much faster than np.add.at)
                if restricted:
                    z[sd.owned_flat] += local.take(sd.owned_local_flat)
                else:
                    z[sd.flat] += local
            per_rank_s[s] = sp.elapsed
        rec.record_wait("trisolve", per_rank_s)
        return z

    # -- accounting ------------------------------------------------------
    def overlap_fraction(self) -> float:
        """Mean fraction of each subdomain's rows that are ghost rows —
        the extra memory/compute and the matrix-element communication
        cost the paper lists for ASM (items 2-3 in Sec. 2.4.3)."""
        if not self.subdomains:
            return 0.0
        return float(np.mean([sd.num_ghost / max(sd.num_rows, 1)
                              for sd in self.subdomains]))

    def total_factor_nnz(self) -> int:
        return sum(sd.factor_nnz for sd in self.subdomains)

    def communication_phases(self) -> int:
        """Vector communication phases per application: RASM gathers the
        overlapped residual only (1 phase); standard ASM also scatters
        the overlapped solution back (2 phases)."""
        return 1 if self.config.variant is ASMVariant.RESTRICTED else 2
