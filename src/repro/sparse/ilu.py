"""ILU(k) incomplete factorisation, scalar (AIJ) and block (BAIJ).

This is the subdomain solver of the paper's Schwarz preconditioner
(Table 4 sweeps the fill level k from 0 to 2).  The symbolic phase
computes the level-of-fill pattern once per sparsity; the numeric
phase refactors on that fixed pattern each time the Jacobian is
refreshed — exactly PETSc's split.

Both phases are compiled row loops where a C backend is available, as
PETSc's are.  With ``engine="compiled"`` the symbolic phase is a C
level-of-fill loop, integer-exact against the ``heapq`` loop kept as
:func:`ilu_symbolic_ref` (which the numpy tier runs); the numeric
phase is the reference IKJ row loop in C (:func:`repro.kernels.
ilu_numeric`) and builds no schedule of any kind: the compiled
triangular solves walk rows in natural order.

On the numpy tier the numeric phase is *schedule driven*: the symbolic
pattern is compiled once into an :class:`EliminationSchedule` —
flattened gather/scatter index arrays grouped into dependency
wavefronts, plus the level lists of the triangular solves — after
which every refactorisation is pure batched numpy: one scatter of A's
values into the working layout, then per elimination step a batched
divide (or block GEMM against the pivot inverses) and one
fancy-indexed update.  The schedule is cached on the pattern, so
repeated Jacobian refreshes pay only the array arithmetic.  The
original row-by-row loops are kept as :func:`ilu_csr_ref` /
:func:`ilu_bsr_ref` — the semantics oracle for both tiers.

Level-of-fill rule: original entries have level 0; a fill entry
created by eliminating column k in row i via u_kj gets level
``lev(i,k) + lev(k,j) + 1`` and is kept iff its level <= k_fill.
"""

from __future__ import annotations

# lint: kernel (ILU(k) refactorisation is a per-Newton-step path)

import heapq
from dataclasses import dataclass, field, replace

import numpy as np

from repro import kernels as _kernels
from repro.sparse.bsr import BSRMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.trisolve import (
    _ranges,
    level_schedule,
    lower_solve_blocks,
    lower_solve_csr,
    upper_solve_blocks,
    upper_solve_csr,
)

__all__ = ["ILUPattern", "ilu_symbolic", "ilu_symbolic_ref", "ILUFactorCSR",
           "ILUFactorBSR", "ilu_csr", "ilu_bsr", "ilu_csr_ref", "ilu_bsr_ref",
           "EliminationSchedule", "compile_elimination_schedule"]


@dataclass
class ILUPattern:
    """Fill pattern of an ILU(k) factorisation, split into the strictly
    lower (L) and strictly upper (U) parts; the diagonal is implicit.

    ``l_levels``/``u_levels`` carry the level of fill of each entry
    (0 = original), retained for diagnostics and ablation benches.
    """

    n: int
    fill_level: int
    l_indptr: np.ndarray
    l_indices: np.ndarray
    l_levels: np.ndarray
    u_indptr: np.ndarray
    u_indices: np.ndarray
    u_levels: np.ndarray

    @property
    def nnz(self) -> int:
        """Total stored entries including the diagonal."""
        return int(self.l_indices.size + self.u_indices.size + self.n)

    def fill_ratio(self, original_nnz: int) -> float:
        return self.nnz / max(original_nnz, 1)


def ilu_symbolic(indptr: np.ndarray, indices: np.ndarray,
                 fill_level: int, engine: str = "numpy") -> ILUPattern:
    """Symbolic ILU(k) on a square sparsity pattern.

    The pattern must contain the full diagonal (standard for PDE
    Jacobians); if a diagonal entry is structurally missing it is
    inserted at level 0, matching PETSc's shift-free behaviour.

    ``engine="compiled"`` runs the C level-of-fill loop, integer-exact
    against :func:`ilu_symbolic_ref`; the numpy tier (and the compiled
    tier without a backend, or on a column index outside ``[0, n)``)
    runs the reference itself.
    """
    arrays = (_kernels.ilu_symbolic(indptr, indices, fill_level, engine)
              if engine != "numpy" else None)
    if arrays is None:
        return ilu_symbolic_ref(indptr, indices, fill_level)
    return ILUPattern(len(indptr) - 1, fill_level, *arrays)


def ilu_symbolic_ref(indptr: np.ndarray, indices: np.ndarray,
                     fill_level: int) -> ILUPattern:
    """Reference symbolic ILU(k): a ``heapq`` pivot loop per row, the
    semantics oracle of :func:`ilu_symbolic`."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = indptr.size - 1
    # Factored upper rows: u_cols[k] is a sorted int array (cols > k),
    # u_levs[k] the matching levels.
    u_cols: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    u_levs: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    l_rows_cols: list[np.ndarray] = []
    l_rows_levs: list[np.ndarray] = []

    # lint: loop-ok (symbolic ILU(k) level analysis, once per pattern, memoised)
    for i in range(n):
        row = indices[indptr[i] : indptr[i + 1]]
        lev: dict[int, int] = {int(j): 0 for j in row}
        lev[i] = 0  # ensure diagonal
        heap = [j for j in lev if j < i]
        heapq.heapify(heap)
        popped: set[int] = set()
        # lint: loop-ok (pivot heap of the symbolic analysis, once per pattern)
        while heap:
            k = heapq.heappop(heap)
            if k in popped:
                continue
            popped.add(k)
            lev_ik = lev[k]
            cols_k = u_cols[k]
            levs_k = u_levs[k]
            # lint: loop-ok (fill-level merge of the symbolic analysis, once per pattern)
            for t in range(cols_k.size):
                j = int(cols_k[t])
                new_lev = lev_ik + int(levs_k[t]) + 1
                if j in lev:
                    if new_lev < lev[j]:
                        lev[j] = new_lev
                elif new_lev <= fill_level:
                    lev[j] = new_lev
                    if j < i:
                        heapq.heappush(heap, j)
        cols = np.array(sorted(lev), dtype=np.int64)
        levels = np.array([lev[int(c)] for c in cols], dtype=np.int64)
        lower = cols < i
        upper = cols > i
        l_rows_cols.append(cols[lower])
        l_rows_levs.append(levels[lower])
        u_cols[i] = cols[upper]
        u_levs[i] = levels[upper]

    def _pack(rows_cols, rows_levs):
        counts = np.array([c.size for c in rows_cols], dtype=np.int64)
        iptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=iptr[1:])
        cat_c = (np.concatenate(rows_cols) if iptr[-1]
                 else np.empty(0, dtype=np.int64))
        cat_l = (np.concatenate(rows_levs) if iptr[-1]
                 else np.empty(0, dtype=np.int64))
        return iptr, cat_c, cat_l

    l_iptr, l_idx, l_lev = _pack(l_rows_cols, l_rows_levs)
    u_iptr, u_idx, u_lev = _pack(u_cols, u_levs)
    return ILUPattern(n=n, fill_level=fill_level,
                      l_indptr=l_iptr, l_indices=l_idx, l_levels=l_lev,
                      u_indptr=u_iptr, u_indices=u_idx, u_levels=u_lev)


# ----------------------------------------------------------------------
# Elimination schedule: the one-time compilation of the pattern's
# irregular index work into flat gather/scatter arrays.
# ----------------------------------------------------------------------

@dataclass
class EliminationStep:
    """One wavefront stage: every single-entry elimination whose
    dependencies are complete runs in the same batch.

    An elimination ``(i, t)`` — clearing row ``i``'s ``t``-th lower
    entry against pivot row ``k`` — depends on ``(i, t-1)`` (its slot
    must hold all earlier updates before the division) and on pivot
    row ``k`` being fully factored.  Scheduling by that DAG's wavefronts
    packs eliminations from *different* dependency levels into one
    batch, so the sequential stage count is the critical-path length
    rather than ``sum over levels of max lower count`` — an order of
    magnitude fewer, and correspondingly larger, batches.

    Indices address the flat working array ``w`` of a refactorisation,
    laid out ``[L entries | diagonal | U entries]`` in pattern order.
    Updates only touch slots of the row being eliminated and each row
    runs at most one elimination per stage, so ``dst`` is unique within
    a stage and a plain fancy-indexed subtract is exact.
    """

    lpos: np.ndarray        # w-indices (== l_data slots) of the multipliers
    piv: np.ndarray         # pivot row k per elimination
    dst: np.ndarray         # w-indices receiving updates (unique per stage)
    src: np.ndarray         # u-entry index of the coefficient u_kj per update
    rep: np.ndarray         # elimination position each update belongs to
    check_rows: np.ndarray  # rows whose factorisation completes here


@dataclass
class EliminationSchedule:
    """Precompiled numeric-factorisation plan for one (pattern, A) pair.

    ``a_src``/``a_dst`` scatter A's stored values into the working
    layout; ``stages`` hold the batched elimination wavefronts (with
    ``pre_check`` the rows that are final before any elimination);
    ``l_solve``/``u_solve`` are the cached triangular-solve level
    schedules (previously recomputed on every refactorisation).
    """

    n: int
    nnzl: int
    nnzu: int
    a_src: np.ndarray
    a_dst: np.ndarray
    stages: list[EliminationStep]
    pre_check: np.ndarray
    l_solve: list[np.ndarray]
    u_solve: list[np.ndarray]
    _a_indptr: np.ndarray
    _a_indices: np.ndarray

    @property
    def off_diag(self) -> int:
        return self.nnzl

    @property
    def off_upper(self) -> int:
        return self.nnzl + self.n

    def matches(self, a_indptr: np.ndarray, a_indices: np.ndarray) -> bool:
        """Cheap structural-identity check for cache reuse."""
        if self._a_indptr is a_indptr and self._a_indices is a_indices:
            return True
        return (self._a_indices.size == a_indices.size
                and np.array_equal(self._a_indptr, a_indptr)
                and np.array_equal(self._a_indices, a_indices))


def compile_elimination_schedule(pattern: ILUPattern, a_indptr: np.ndarray,
                                 a_indices: np.ndarray) -> EliminationSchedule:
    """Compile ``pattern`` into batched index arrays for matrices with
    the sparsity ``(a_indptr, a_indices)``."""
    n = pattern.n
    l_iptr, l_idx = pattern.l_indptr, pattern.l_indices
    u_iptr, u_idx = pattern.u_indptr, pattern.u_indices
    nnzl, nnzu = l_idx.size, u_idx.size
    off_d, off_u = nnzl, nnzl + n
    a_indptr = np.asarray(a_indptr, dtype=np.int64)
    a_indices = np.asarray(a_indices, dtype=np.int64)
    if a_indices.size and (a_indices.min() < 0 or a_indices.max() >= n):
        # a negative column would otherwise wrap around in ``pos`` below
        raise IndexError(f"column index outside [0, {n}) in the matrix "
                         f"being factored")
    ucounts = np.diff(u_iptr)

    # --- flat per-row pass: A-scatter map + update targets ------------
    # One scatter table per row (column -> w slot, like the reference
    # row loop keeps) resolves every update-candidate target with a
    # direct gather — O(1) per candidate, where a sorted-key binary
    # search was ~20x slower on large patterns.
    pos = np.full(n, -1, dtype=np.int64)
    a_src_parts: list[np.ndarray] = []
    a_dst_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    src_parts: list[np.ndarray] = []
    kc = np.zeros(nnzl, dtype=np.int64)      # kept updates per elimination
    # lint: loop-ok (elimination-schedule compilation, once per pattern)
    for i in range(n):
        ls, le = int(l_iptr[i]), int(l_iptr[i + 1])
        us, ue = int(u_iptr[i]), int(u_iptr[i + 1])
        lc = l_idx[ls:le]
        uc = u_idx[us:ue]
        pos[lc] = np.arange(ls, le, dtype=np.int64)
        pos[i] = off_d + i
        pos[uc] = off_u + np.arange(us, ue, dtype=np.int64)
        s, e = int(a_indptr[i]), int(a_indptr[i + 1])
        slots = pos[a_indices[s:e]]
        ok = slots >= 0                      # pattern ⊇ A: keeps everything
        a_src_parts.append(np.flatnonzero(ok) + s)
        a_dst_parts.append(slots[ok])
        if le > ls:
            cnt = ucounts[lc]
            src = _ranges(u_iptr[lc], cnt)
            dstc = pos[u_idx[src]]
            keep = dstc >= 0                 # dropped fill, exactly ILU's rule
            dst_parts.append(dstc[keep])
            src_parts.append(src[keep])
            rep = np.repeat(np.arange(le - ls, dtype=np.int64), cnt)
            kc[ls:le] = np.bincount(rep[keep], minlength=le - ls)
        pos[lc] = -1
        pos[i] = -1
        pos[uc] = -1
    empty = np.empty(0, dtype=np.int64)
    a_src = np.concatenate(a_src_parts) if a_src_parts else empty
    a_dst = np.concatenate(a_dst_parts) if a_dst_parts else empty
    dst_csr = np.concatenate(dst_parts) if dst_parts else empty
    src_csr = np.concatenate(src_parts) if src_parts else empty
    uoff = np.zeros(nnzl + 1, dtype=np.int64)
    np.cumsum(kc, out=uoff[1:])

    # --- wavefront stage assignment -----------------------------------
    # stage(i, t) = max(stage(i, t-1), finish(pivot)) + 1, i.e. the
    # earliest batch in which both the running within-row update chain
    # and the pivot row are complete.  Unrolled per row this is a
    # running max, so each row is one vectorised accumulate; rows are
    # visited in index order, which is a topological order because
    # every pivot has a smaller index.
    stage_of = np.empty(nnzl, dtype=np.int64)
    finish = np.zeros(n, dtype=np.int64)
    # lint: loop-ok (stage assignment of the schedule, once per pattern)
    for i in range(n):
        s, e = int(l_iptr[i]), int(l_iptr[i + 1])
        if s == e:
            continue
        t = np.arange(e - s, dtype=np.int64)
        stage_of[s:e] = np.maximum.accumulate(finish[l_idx[s:e]] - t) + t + 1
        finish[i] = stage_of[e - 1]

    checks: dict[int, np.ndarray] = {}
    if n:
        forder = np.argsort(finish, kind="stable")
        fsorted = finish[forder]
        checks = {int(fsorted[g[0]]): forder[g].astype(np.int64)
                  for g in np.split(np.arange(n, dtype=np.int64),
                                    np.flatnonzero(np.diff(fsorted)) + 1)}

    # Eliminations are grouped by stage; each stage gathers its update
    # index lists from the CSR-order flat arrays built above, so per-
    # stage work is O(stage size), never O(pattern size).
    stages: list[EliminationStep] = []
    if nnzl:
        order = np.argsort(stage_of, kind="stable")  # ties keep CSR order
        sorted_st = stage_of[order]
        estarts = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_st)) + 1, [nnzl]))
        # lint: loop-ok (per-stage gather-list build, once per pattern)
        for gi in range(estarts.size - 1):
            e0, e1 = int(estarts[gi]), int(estarts[gi + 1])
            elims = order[e0:e1]
            kci = kc[elims]
            idx = _ranges(uoff[elims], kci)
            stages.append(EliminationStep(
                lpos=elims, piv=l_idx[elims],
                dst=dst_csr[idx], src=src_csr[idx],
                rep=np.repeat(np.arange(e1 - e0, dtype=np.int64), kci),
                check_rows=checks.get(int(sorted_st[e0]), empty)))

    return EliminationSchedule(
        n=n, nnzl=nnzl, nnzu=nnzu, a_src=a_src, a_dst=a_dst, stages=stages,
        pre_check=checks.get(0, empty),
        l_solve=level_schedule(l_iptr, l_idx),
        u_solve=level_schedule(u_iptr, u_idx, reverse=True),
        _a_indptr=a_indptr, _a_indices=a_indices)


def _check_pivots(w: np.ndarray, off_d: int, rows: np.ndarray) -> None:
    """Raise on a zero diagonal among ``rows`` (all final in ``w``)."""
    if not rows.size:
        return
    d = w[off_d + rows]
    if np.any(d == 0.0):
        bad = int(rows[np.flatnonzero(d == 0.0)[0]])
        raise ZeroDivisionError(f"zero pivot in ILU at row {bad}")


def _schedule_for(pattern: ILUPattern, a_indptr: np.ndarray,
                  a_indices: np.ndarray) -> EliminationSchedule:
    """The pattern's cached schedule, (re)compiled on structure change."""
    cached: EliminationSchedule | None = getattr(pattern, "_schedule", None)
    if cached is None or not cached.matches(a_indptr, a_indices):
        cached = compile_elimination_schedule(pattern, a_indptr, a_indices)
        pattern._schedule = cached  # type: ignore[attr-defined]
    return cached


def _solve_levels(factor) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """A factor's (L, U) dependency levels, built the first time the
    numpy trisolve batches need them (the compiled trisolves walk rows
    in natural order and never ask)."""
    if factor.solve_levels is None:
        p = factor.pattern
        factor.solve_levels = (
            level_schedule(p.l_indptr, p.l_indices),
            level_schedule(p.u_indptr, p.u_indices, reverse=True))
    return factor.solve_levels


# ----------------------------------------------------------------------
# Scalar numeric factorisation
# ----------------------------------------------------------------------

@dataclass
class ILUFactorCSR:
    """Numeric scalar ILU factor L U ~= A with unit-diagonal L.

    ``storage_dtype`` implements the paper's Table 2 optimisation: the
    factors may be *stored* in float32 while all arithmetic stays in
    float64 (values are widened on load), halving the memory traffic of
    the triangular solves.
    """

    pattern: ILUPattern
    l_data: np.ndarray
    u_data: np.ndarray
    inv_diag: np.ndarray
    engine: str = "numpy"   # kernel tier for the triangular solves
    #: (L, U) levels of the numpy trisolve; None until it first runs
    solve_levels: tuple | None = field(default=None, repr=False)

    @property
    def storage_dtype(self) -> np.dtype:
        return self.l_data.dtype

    @property
    def factor_bytes(self) -> int:
        """Bytes of stored factor values (the Table 2 traffic knob)."""
        item = self.l_data.dtype.itemsize
        return (self.l_data.size + self.u_data.size + self.inv_diag.size) * item

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x = U^{-1} L^{-1} b, computed in float64."""
        p = self.pattern
        y = lower_solve_csr(p.l_indptr, p.l_indices, self.l_data, b,
                            lambda: _solve_levels(self)[0],
                            engine=self.engine)
        return upper_solve_csr(p.u_indptr, p.u_indices, self.u_data,
                               self.inv_diag, y,
                               lambda: _solve_levels(self)[1],
                               engine=self.engine)

    def astype_storage(self, dtype) -> "ILUFactorCSR":
        return replace(self, l_data=self.l_data.astype(dtype),
                       u_data=self.u_data.astype(dtype),
                       inv_diag=self.inv_diag.astype(dtype))


def ilu_csr(a: CSRMatrix, fill_level: int = 0,
            pattern: ILUPattern | None = None,
            storage_dtype=np.float64, engine: str = "numpy") -> ILUFactorCSR:
    """Numeric ILU(k) of a scalar CSR matrix.

    ``engine="compiled"`` runs the C row loop, bitwise
    :func:`ilu_csr_ref`, and builds no schedule.  The numpy tier (and
    the compiled tier without a backend) is schedule driven: with a
    reused ``pattern`` (the production path: one symbolic phase, many
    Jacobian refreshes) the entire factorisation is batched numpy on
    precompiled index arrays; no per-row Python work remains.
    """
    if pattern is None:
        pattern = ilu_symbolic(a.indptr, a.indices, fill_level, engine)
    out = (_kernels.ilu_numeric(pattern, a.indptr, a.indices, a.data, engine)
           if engine != "numpy" else None)
    levels = None
    if out is None:
        sched = _schedule_for(pattern, a.indptr, a.indices)
        off_d, off_u = sched.off_diag, sched.off_upper
        w = np.zeros(sched.nnzl + sched.n + sched.nnzu, dtype=np.float64)
        w[sched.a_dst] = a.data[sched.a_src]
        _check_pivots(w, off_d, sched.pre_check)
        # lint: loop-ok (O(stages) numeric sweep; arithmetic stays fp64 per Table 2)
        for st in sched.stages:
            mult = w[st.lpos] / w[off_d + st.piv]
            w[st.lpos] = mult
            if st.dst.size:
                # dst is unique within a stage, so the fancy-indexed
                # subtract is an exact (unbuffered) scatter.
                w[st.dst] -= mult[st.rep] * w[off_u + st.src]
            # Rows finishing here are checked before any later stage can
            # divide by their diagonal.
            _check_pivots(w, off_d, st.check_rows)
        out = (w[:off_d].copy(), w[off_u:].copy(), 1.0 / w[off_d:off_u])
        levels = (sched.l_solve, sched.u_solve)
    factor = ILUFactorCSR(pattern, *out, engine=engine, solve_levels=levels)
    if np.dtype(storage_dtype) != np.float64:
        factor = factor.astype_storage(storage_dtype)
    return factor


def ilu_csr_ref(a: CSRMatrix, fill_level: int = 0,
                pattern: ILUPattern | None = None,
                storage_dtype=np.float64) -> ILUFactorCSR:
    """Reference row-loop numeric ILU(k) (IKJ variant).

    The pre-schedule implementation, kept verbatim as the semantics
    oracle for :func:`ilu_csr` and the baseline of the kernel bench.
    """
    if pattern is None:
        pattern = ilu_symbolic(a.indptr, a.indices, fill_level)
    n = pattern.n
    l_data = np.zeros(pattern.l_indices.size, dtype=np.float64)
    u_data = np.zeros(pattern.u_indices.size, dtype=np.float64)
    diag = np.zeros(n, dtype=np.float64)
    # Position map col -> slot in the current working row.
    pos = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        ls, le = pattern.l_indptr[i], pattern.l_indptr[i + 1]
        us, ue = pattern.u_indptr[i], pattern.u_indptr[i + 1]
        lcols = pattern.l_indices[ls:le]
        ucols = pattern.u_indices[us:ue]
        nl = lcols.size
        w = np.zeros(nl + 1 + ucols.size, dtype=np.float64)
        pos[lcols] = np.arange(nl, dtype=np.int64)
        pos[i] = nl
        pos[ucols] = nl + 1 + np.arange(ucols.size, dtype=np.int64)
        # Scatter A's row i.
        acols, avals = a.row(i)
        slots = pos[acols]
        ok = slots >= 0
        w[slots[ok]] += avals[ok]
        # Eliminate, in ascending k (lcols is sorted).
        for t in range(nl):
            k = int(lcols[t])
            l_ik = w[t] / diag[k]
            w[t] = l_ik
            ks, ke = pattern.u_indptr[k], pattern.u_indptr[k + 1]
            kcols = pattern.u_indices[ks:ke]
            kslots = pos[kcols]
            hit = kslots >= 0
            w[kslots[hit]] -= l_ik * u_data[ks:ke][hit]
        d = w[nl]
        if d == 0.0:
            raise ZeroDivisionError(f"zero pivot in ILU at row {i}")
        diag[i] = d
        l_data[ls:le] = w[:nl]
        u_data[us:ue] = w[nl + 1:]
        pos[lcols] = -1
        pos[i] = -1
        pos[ucols] = -1
    factor = ILUFactorCSR(pattern=pattern, l_data=l_data, u_data=u_data,
                          inv_diag=1.0 / diag)
    if np.dtype(storage_dtype) != np.float64:
        factor = factor.astype_storage(storage_dtype)
    return factor


# ----------------------------------------------------------------------
# Block numeric factorisation
# ----------------------------------------------------------------------

@dataclass
class ILUFactorBSR:
    """Numeric block ILU factor; the structural-blocking analogue of
    :class:`ILUFactorCSR` (blocks are eliminated as units with dense
    block inverses, PETSc BAIJ-style)."""

    pattern: ILUPattern
    bs: int
    l_data: np.ndarray          # (nnzl, bs, bs)
    u_data: np.ndarray          # (nnzu, bs, bs)
    inv_diag: np.ndarray        # (n, bs, bs)
    engine: str = "numpy"       # kernel tier for the triangular solves
    #: (L, U) levels of the numpy trisolve; None until it first runs
    solve_levels: tuple | None = field(default=None, repr=False)

    @property
    def storage_dtype(self) -> np.dtype:
        return self.l_data.dtype

    @property
    def factor_bytes(self) -> int:
        item = self.l_data.dtype.itemsize
        return (self.l_data.size + self.u_data.size + self.inv_diag.size) * item

    def solve(self, b: np.ndarray) -> np.ndarray:
        p = self.pattern
        y = lower_solve_blocks(p.l_indptr, p.l_indices, self.l_data, b,
                               lambda: _solve_levels(self)[0], self.bs,
                               engine=self.engine)
        return upper_solve_blocks(p.u_indptr, p.u_indices, self.u_data,
                                  self.inv_diag, y,
                                  lambda: _solve_levels(self)[1], self.bs,
                                  engine=self.engine)

    def astype_storage(self, dtype) -> "ILUFactorBSR":
        return replace(self, l_data=self.l_data.astype(dtype),
                       u_data=self.u_data.astype(dtype),
                       inv_diag=self.inv_diag.astype(dtype))


def ilu_bsr(a: BSRMatrix, fill_level: int = 0,
            pattern: ILUPattern | None = None,
            storage_dtype=np.float64, engine: str = "numpy") -> ILUFactorBSR:
    """Numeric block ILU(k) of a BSR matrix.

    ``engine="compiled"`` runs the C row loop of :func:`ilu_bsr_ref`
    (bs x bs products and the pivot-block inverse inline, ULP-bounded)
    and builds no schedule.  The numpy tier follows the plan of
    :func:`ilu_csr` with scalars replaced by ``bs x bs`` blocks:
    divisions become GEMMs against the pivot-block inverses
    (``np.matmul`` over stacked blocks) and diagonal inversions are
    batched per dependency level.
    """
    if pattern is None:
        pattern = ilu_symbolic(a.indptr, a.indices, fill_level, engine)
    bs = a.bs
    out = (_kernels.ilu_numeric(pattern, a.indptr, a.indices, a.data, engine)
           if engine != "numpy" else None)
    levels = None
    if out is None:
        sched = _schedule_for(pattern, a.indptr, a.indices)
        off_d, off_u = sched.off_diag, sched.off_upper
        w = np.zeros((sched.nnzl + sched.n + sched.nnzu, bs, bs),
                     dtype=np.float64)
        w[sched.a_dst] = a.data[sched.a_src]
        inv_diag = np.empty((sched.n, bs, bs), dtype=np.float64)
        if sched.pre_check.size:
            inv_diag[sched.pre_check] = np.linalg.inv(
                w[off_d + sched.pre_check])
        # lint: loop-ok (O(stages) numeric sweep; arithmetic stays fp64 per Table 2)
        for st in sched.stages:
            mult = np.matmul(w[st.lpos], inv_diag[st.piv])
            w[st.lpos] = mult
            if st.dst.size:
                w[st.dst] -= np.matmul(mult[st.rep], w[off_u + st.src])
            # Diagonal blocks finishing here are inverted before any
            # later stage multiplies by them.
            if st.check_rows.size:
                inv_diag[st.check_rows] = np.linalg.inv(
                    w[off_d + st.check_rows])
        out = (w[:off_d].copy(), w[off_u:].copy(), inv_diag)
        levels = (sched.l_solve, sched.u_solve)
    factor = ILUFactorBSR(pattern, bs, *out, engine=engine,
                          solve_levels=levels)
    if np.dtype(storage_dtype) != np.float64:
        factor = factor.astype_storage(storage_dtype)
    return factor


def ilu_bsr_ref(a: BSRMatrix, fill_level: int = 0,
                pattern: ILUPattern | None = None,
                storage_dtype=np.float64) -> ILUFactorBSR:
    """Reference row-loop numeric block ILU(k) — oracle for
    :func:`ilu_bsr`, see :func:`ilu_csr_ref`."""
    if pattern is None:
        pattern = ilu_symbolic(a.indptr, a.indices, fill_level)
    n = pattern.n
    bs = a.bs
    l_data = np.zeros((pattern.l_indices.size, bs, bs),
                      dtype=np.float64)
    u_data = np.zeros((pattern.u_indices.size, bs, bs),
                      dtype=np.float64)
    inv_diag = np.zeros((n, bs, bs), dtype=np.float64)
    pos = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        ls, le = pattern.l_indptr[i], pattern.l_indptr[i + 1]
        us, ue = pattern.u_indptr[i], pattern.u_indptr[i + 1]
        lcols = pattern.l_indices[ls:le]
        ucols = pattern.u_indices[us:ue]
        nl = lcols.size
        w = np.zeros((nl + 1 + ucols.size, bs, bs), dtype=np.float64)
        pos[lcols] = np.arange(nl, dtype=np.int64)
        pos[i] = nl
        pos[ucols] = nl + 1 + np.arange(ucols.size, dtype=np.int64)
        s, e = a.indptr[i], a.indptr[i + 1]
        acols = a.indices[s:e]
        slots = pos[acols]
        ok = slots >= 0
        w[slots[ok]] += a.data[s:e][ok]
        for t in range(nl):
            k = int(lcols[t])
            l_ik = w[t] @ inv_diag[k]
            w[t] = l_ik
            ks, ke = pattern.u_indptr[k], pattern.u_indptr[k + 1]
            kcols = pattern.u_indices[ks:ke]
            kslots = pos[kcols]
            hit = kslots >= 0
            if hit.any():
                w[kslots[hit]] -= np.einsum("ij,kjl->kil", l_ik,
                                            u_data[ks:ke][hit])
        inv_diag[i] = np.linalg.inv(w[nl])
        l_data[ls:le] = w[:nl]
        u_data[us:ue] = w[nl + 1:]
        pos[lcols] = -1
        pos[i] = -1
        pos[ucols] = -1
    factor = ILUFactorBSR(pattern=pattern, bs=bs, l_data=l_data,
                          u_data=u_data, inv_diag=inv_diag)
    if np.dtype(storage_dtype) != np.float64:
        factor = factor.astype_storage(storage_dtype)
    return factor
