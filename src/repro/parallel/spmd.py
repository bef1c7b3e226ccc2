"""Functional SPMD execution of the partitioned kernels.

The other modules in this package *price* communication; this one
*performs* it.  Each rank owns its labelled vertices, holds ghost
copies of off-rank neighbours, and computes with purely local arrays;
a :class:`GhostExchange` step refreshes the ghosts (the VecScatter).
:class:`SPMDLayout` is the program's one definition of a partition's
owned / ghost / neighbour / edge sets: the performance model prices
the same layout (:func:`repro.parallel.rankwork.build_rank_work`,
:func:`repro.parallel.simulate.simulate_solve`).  Running the flux
loop and SpMV this way and comparing owned rows against the sequential
kernels validates that halo with real data — the correctness side of
the Table 3 machinery.  As in PETSc-FUN3D, a rank runs the one flux
loop on its local mesh: :func:`rank_residual` calls the
discretisation's own first-order residual on the rank's rows, so the
sequential kernel is the one-rank case rather than a second
implementation.

As PETSc does with ``VecScatterCreate``, the scatter is planned once
per layout — :class:`ScatterPlan`: built on first use, ownership
checked once, the exchange's message and byte counts taken from it —
and applied on every call by both executors, the in-process rank loop
and :class:`~repro.parallel.procpool.ProcPool`.

This is a deterministic simulation of the MPI program, executed rank
by rank in one process (the environment has no MPI); the data each
rank touches is restricted to its local arrays, so any bookkeeping
error produces wrong numbers rather than silent reuse of global state.

Dtype preservation
------------------
All distributed kernels honour the dtype of the global vector they are
handed: a float32 ``qglobal``/``xglobal`` gets float32 rank-local
arrays, float32 exchange payloads, and a float32 result (mirroring the
Krylov solvers, whose working precision follows the right-hand side —
the paper's Sec. 3.2 precision knob).  No silent promotion to float64
happens anywhere in the rank-local path.

Telemetry
---------
Every kernel accepts ``recorder=`` (a
:class:`repro.telemetry.TraceRecorder`); when given, per-rank compute
spans, ghost-exchange payloads (messages/bytes counters), reduction
counts, and the max-over-ranks implicit-synchronisation waits are
*measured* from this execution — the observed counterpart of the
modelled :mod:`repro.parallel.simulate` ledgers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro import kernels as _kernels
from repro.sanitize.statehash import note as _sanitize_note
from repro.sparse.bsr import BSRMatrix
from repro.sparse.segsum import concat_ranges, run_starts, segment_sum
from repro.telemetry.recorder import NULL_RECORDER

if TYPE_CHECKING:
    from repro.euler.discretization import EdgeFVDiscretization

__all__ = ["RankLocalData", "SPMDLayout", "ScatterPlan", "GhostExchange",
           "distributed_residual", "distributed_matvec",
           "rank_residual", "rank_matvec", "rank_matvec_structs",
           "MatvecGather"]


@dataclass
class RankLocalData:
    """One rank's local index world.

    Its local vertices are the owned ones, then the ghosts (global
    ids); all per-rank arrays are indexed by local position.
    ``edge_ids`` are the global edges with at least one owned endpoint
    (halo edges appear on both sharing ranks, recomputed redundantly —
    as in the real code).  Every array is a view into the layout's
    flat arrays.
    """

    rank: int
    owned: np.ndarray             # global vertex ids, sorted
    ghosts: np.ndarray            # global vertex ids, sorted
    edge_ids: np.ndarray          # global edge ids of the local edge set
    local_edges: np.ndarray       # (m, 2) local indices of those edges
    ghost_owner: np.ndarray       # owning rank of each ghost

    @property
    def n_owned(self) -> int:
        return int(self.owned.size)


class _Flat(NamedTuple):
    """Every rank's :class:`RankLocalData` arrays, rank after rank, cut
    by ``p + 1`` offsets: rank ``r``'s owned vertices are
    ``owned[own_off[r]:own_off[r + 1]]``, and so on."""

    owned: np.ndarray
    own_off: np.ndarray
    ghosts: np.ndarray
    ghost_owner: np.ndarray
    ghost_off: np.ndarray
    edge_ids: np.ndarray
    local_edges: np.ndarray
    edge_off: np.ndarray


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: the slice offsets of ``counts``."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _key_map(owner: np.ndarray, owned: np.ndarray, own_off: np.ndarray,
             ghosts: np.ndarray, ghost_off: np.ndarray):
    """The global -> rank-local map of a layout's flat arrays:
    ``local(r, v)`` is vertex ``v[i]``'s local row on rank ``r[i]`` — an
    owned vertex's position among the rank's owned vertices, a ghost's
    after them (one binary search of the sorted ``rank·n + vertex``
    ghost keys), ``-1`` for a vertex that is neither."""
    n, own_cnt = int(owner.size), np.diff(own_off)
    pos = np.empty(n, dtype=np.int64)
    pos[owned] = np.arange(n) - np.repeat(own_off[:-1], own_cnt)
    keys = np.append(np.repeat(np.arange(own_cnt.size), np.diff(ghost_off))
                     * n + ghosts, np.iinfo(np.int64).max)

    def local(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = pos[v]
        far = np.flatnonzero(owner[v] != r)
        r, key = r[far], r[far] * n + v[far]
        g = np.searchsorted(keys, key)
        out[far] = np.where(keys[g] == key, own_cnt[r] + g - ghost_off[r], -1)
        return out

    return local


@dataclass
class SPMDLayout:
    """The full set of rank-local worlds for one partition.

    :attr:`plan` is the layout's :class:`ScatterPlan`, built on first
    use, with the SpMV gather structure of the last matrix pattern; it
    is layout-owned so warm services can seed it across solves.
    """

    labels: np.ndarray
    ranks: list[RankLocalData] = field(default_factory=list)
    _flat: _Flat | None = field(default=None, repr=False, compare=False)
    _plan: "ScatterPlan | None" = field(default=None, init=False,
                                        repr=False, compare=False)

    @property
    def nranks(self) -> int:
        return len(self.ranks)

    @property
    def plan(self) -> "ScatterPlan":
        """The scatter plan, built and ownership-checked on first use."""
        if self._plan is None:
            self._plan = ScatterPlan(self)
        return self._plan

    @classmethod
    def build(cls, edges: np.ndarray, labels: np.ndarray) -> "SPMDLayout":
        """Every rank's world in one pass over all ranks: a stable sort
        of the vertices by label (the owned sets), one sort of the
        edge -> rank incidences by ``(rank, edge id)`` (the edge sets, a
        cut edge on both its ranks), one sort of the ``rank·n + vertex``
        ghost keys, each kept once (the ghost sets), and one global ->
        local map (the local edges)."""
        labels = np.asarray(labels, dtype=np.int64)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        n, m = labels.size, len(edges)
        p = int(labels.max()) + 1 if n else 0
        owned = np.argsort(labels, kind="stable")
        ends = labels[edges]
        cut = np.flatnonzero(ends[:, 0] != ends[:, 1])
        inc = np.sort(np.concatenate([ends[:, 0] * m + np.arange(m),
                                      ends[cut, 1] * m + cut]))
        inc_rank, edge_ids = np.divmod(inc, max(m, 1))
        # The far end of a cut edge is a ghost of the near end's rank.
        gkey = np.sort(np.concatenate([ends[cut, 0] * n + edges[cut, 1],
                                       ends[cut, 1] * n + edges[cut, 0]]))
        ghost_rank, ghosts = np.divmod(gkey[run_starts(gkey)], max(n, 1))
        own_off, ghost_off, edge_off = (_offsets(np.bincount(x, minlength=p))
                                        for x in (labels, ghost_rank, inc_rank))
        local = _key_map(labels, owned, own_off, ghosts, ghost_off)
        local_edges = local(np.repeat(inc_rank, 2),
                            edges[edge_ids].ravel()).reshape(-1, 2)
        flat = _Flat(owned, own_off, ghosts, labels[ghosts], ghost_off,
                     edge_ids, local_edges, edge_off)
        o, g, e = own_off.tolist(), ghost_off.tolist(), edge_off.tolist()
        ranks = [RankLocalData(
            r, owned[o[r]:o[r + 1]], ghosts[g[r]:g[r + 1]],
            edge_ids[e[r]:e[r + 1]], local_edges[e[r]:e[r + 1]],
            flat.ghost_owner[g[r]:g[r + 1]]) for r in range(p)]
        return cls(labels=labels, ranks=ranks, _flat=flat)


class MatvecGather(NamedTuple):
    """The :func:`rank_matvec_structs` of one matrix pattern, rank after
    rank: the ``i``-th rank's blocks are ``blk_off[i]:blk_off[i + 1]``,
    each owned row's in slot order.  Block ``k`` is ``data[flat[k]]``,
    multiplies the rank's local row ``cols[k]`` and adds into its owned
    row ``seg[k]``."""

    blk_off: np.ndarray
    flat: np.ndarray
    cols: np.ndarray
    seg: np.ndarray

    def rank(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``i``-th rank's ``(flat, cols, seg)``, as views."""
        k = slice(self.blk_off[i], self.blk_off[i + 1])
        return self.flat[k], self.cols[k], self.seg[k]


class ScatterPlan:
    """The VecScatter of one layout: built once, applied on every call.

    All ranks' local rows live in one flat buffer, rank after rank and
    owned rows before ghosts, so rank ``r`` is the view
    ``buf[row_off[r]:row_off[r + 1]]`` (:meth:`local`).  ``home[v]``
    is the buffer row of vertex ``v``'s owned copy: distributing a
    global vector is one scatter (:meth:`distribute`).
    ``ghost_src[ghost_off[r]:ghost_off[r + 1]]`` lists the owned rows
    that rank ``r``'s ghosts copy: its refresh is one gather
    (:meth:`refresh_rank`).  Both executors run these same two steps,
    the sequential loop in-process and each pool worker on its ranks;
    the compiled ``seq`` matvec runs them, and every rank's SpMV, in
    one C call (:func:`distributed_matvec`).

    Building the plan checks, once, that every vertex has exactly one
    owner and that every ghost is owned by the rank its
    ``ghost_owner`` names; a stale layout raises :class:`ValueError`
    here rather than gathering wrong rows.  The exchange's message and
    byte counts are the plan's too: ``pairs[r]`` distinct owners send
    to rank ``r``, ``ghost_off[r + 1] - ghost_off[r]`` ghost copies.
    Every array is read from the layout's flat arrays, all ranks at
    once.

    The plan also holds what the rank residual indexes with: each
    rank's edge endpoints as contiguous arrays, and each rank's owned
    boundary rows (:meth:`boundary`); and what the seq matvec indexes
    with, the :class:`MatvecGather` of the last matrix pattern
    (:meth:`gather`).  Geometry is never kept: one layout serves every
    mesh of its topology, so the edge and boundary normals are read
    from the discretisation on each call.
    """

    def __init__(self, layout: SPMDLayout) -> None:
        f = layout._flat
        n = int(layout.labels.size)
        p = layout.nranks
        bad = np.flatnonzero(np.bincount(f.owned, minlength=n) != 1)
        if bad.size:
            raise ValueError(f"stale SPMD layout: vertices {bad.tolist()} "
                             f"do not have exactly one owner")
        own_cnt = np.diff(f.own_off)
        ghost_cnt = np.diff(f.ghost_off)
        self.row_off = f.own_off + f.ghost_off
        self.total_rows = int(self.row_off[-1])
        # (first row, first ghost row, end row) of each rank, as ints.
        self.bounds = list(zip(self.row_off[:-1].tolist(),
                               (self.row_off[:-1] + own_cnt).tolist(),
                               self.row_off[1:].tolist()))
        self.owner = np.empty(n, dtype=np.int64)
        self.owner[f.owned] = np.repeat(np.arange(p, dtype=np.int64),
                                        own_cnt)
        self.home = np.empty(n, dtype=np.int64)
        self.home[f.owned] = (np.arange(n, dtype=np.int64)
                              + np.repeat(f.ghost_off[:-1], own_cnt))
        wrong = np.flatnonzero(self.owner[f.ghosts] != f.ghost_owner)
        if wrong.size:
            r = int(np.searchsorted(f.ghost_off, wrong[0], side="right")) - 1
            claimed = int(f.ghost_owner[wrong[0]])
            mine = wrong[wrong < f.ghost_off[r + 1]]
            missing = f.ghosts[mine[f.ghost_owner[mine] == claimed]]
            raise ValueError(
                f"stale SPMD layout: rank {r} expects ghosts "
                f"{missing.tolist()} from rank {claimed}, which does "
                f"not own them")
        self.ghost_src = self.home[f.ghosts]
        self.ghost_off = f.ghost_off
        # The distinct (receiver, owner) pairs: one message each.
        ghost_rank = np.repeat(np.arange(p, dtype=np.int64), ghost_cnt)
        pair = np.sort(ghost_rank * p + f.ghost_owner)
        senders = pair[run_starts(pair)] // max(p, 1)
        self.pairs: list[int] = np.bincount(senders, minlength=p).tolist()
        # One refresh: its messages, and the ghost copies it moves.
        self.pair_count = sum(self.pairs)
        self.ghost_rows = int(self.ghost_src.size)
        self.receivers = np.flatnonzero(ghost_cnt).tolist()
        self.e0, self.e1 = (np.split(np.ascontiguousarray(f.local_edges[:, k]),
                                     f.edge_off[1:-1]) for k in (0, 1))
        self._flat = f
        self._boundary = None     # (bc.vertices, bc.kinds, per-rank rows)
        self._gather = None       # (indptr, indices, MatvecGather)

    @property
    def nbytes(self) -> int:
        """Bytes of the index arrays the plan holds, the gather
        structure and the matrix pattern it is kept for included."""
        arrays = [self.row_off, self.owner, self.home, self.ghost_src,
                  self.ghost_off, *self.e0, *self.e1]
        if self._boundary is not None:
            verts, kinds, rows = self._boundary
            arrays += [verts, kinds, *(a for rank in rows for a in rank)]
        if self._gather is not None:
            indptr, indices, gather = self._gather
            arrays += [indptr, indices, *gather]
        return sum(a.nbytes for a in arrays)

    def distribute(self, vec: np.ndarray, ncomp: int,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Every rank's owned rows of the global ``vec``, in one
        scatter into the flat buffer (``out``, or a new one of
        ``vec``'s dtype).  The ghost rows are the refresh's to fill."""
        v = vec.reshape(-1, ncomp)
        if out is None:
            out = np.empty((self.total_rows, ncomp), dtype=v.dtype)
        out[self.home] = v
        return out

    def refresh_rank(self, buf: np.ndarray, r: int) -> None:
        """Copy rank ``r``'s ghost rows from their owners' rows."""
        _, glo, hi = self.bounds[r]
        buf[glo:hi] = buf[self.ghost_src[self.ghost_off[r]:
                                         self.ghost_off[r + 1]]]

    def local(self, buf: np.ndarray, r: int) -> np.ndarray:
        """Rank ``r``'s local rows of the flat buffer (a view)."""
        lo, _, hi = self.bounds[r]
        return buf[lo:hi]

    def boundary(self, bc) -> list[tuple]:
        """Each rank's owned boundary vertices under ``bc``, as
        ``(wall_rows, wall_idx, far_rows, far_idx)``: local rows and the
        matching positions in ``bc.vertices``, in ``bc.vertices`` order
        — :meth:`BoundaryCondition.row_sets` split by owner, one stable
        sort a set.

        Which vertices carry a boundary area, and which of those are
        wall, follows the coordinates, so the rows are kept for the
        identity of ``bc.vertices`` / ``bc.kinds`` (as :meth:`gather`
        keys a matrix pattern) and rebuilt, a
        pass over the boundary, for any other pair.
        """
        ent = self._boundary
        if ent is not None and ent[0] is bc.vertices and ent[1] is bc.kinds:
            return ent[2]
        owner = self.owner[bc.vertices]
        local_row = self.home[bc.vertices] - self.row_off[owner]
        p = len(self.bounds)

        def by_rank(idx):
            idx = idx[np.argsort(owner[idx], kind="stable")]
            cut = _offsets(np.bincount(owner[idx], minlength=p)).tolist()
            rows = local_row[idx]
            return [(rows[lo:hi], idx[lo:hi])
                    for lo, hi in zip(cut[:-1], cut[1:])]

        _, wall_idx, _, far_idx = bc.row_sets()
        rows = [(*w, *f) for w, f in zip(by_rank(wall_idx), by_rank(far_idx))]
        self._boundary = (bc.vertices, bc.kinds, rows)
        return rows

    def gather(self, a: BSRMatrix) -> MatvecGather:
        """The :class:`MatvecGather` of ``a``'s pattern, every rank's
        :func:`rank_matvec_structs`.

        It depends only on the pattern (``indptr`` / ``indices``) and
        the layout, so one is kept, for the last pattern, and reused
        across matvecs and, through a warm service's layout, across
        solves.  Validity is an identity hit on the pattern arrays, then
        an ``np.array_equal`` fallback (the jittered-mesh path: equal
        patterns, new arrays; O(nnz) compares are noise next to the
        matvec); another pattern rebuilds it.
        """
        ent = self._gather
        if ent is not None:
            indptr, indices, gather = ent
            if indptr is a.indptr and indices is a.indices:
                return gather
            if (indptr.shape == a.indptr.shape
                    and indices.shape == a.indices.shape
                    and np.array_equal(indptr, a.indptr)
                    and np.array_equal(indices, a.indices)):
                self._gather = (a.indptr, a.indices, gather)
                return gather
        gather = rank_matvec_structs(a.indptr, a.indices, self,
                                     range(len(self.bounds)))
        self._gather = (a.indptr, a.indices, gather)
        return gather


class GhostExchange:
    """The scatter: refresh every rank's ghost rows from the owners,
    through the layout's :class:`ScatterPlan`.

    Executed rank by rank, so each receiving rank's refresh is a
    ``ghost_exchange`` span and the max-over-ranks wait is recorded.
    Accounting convention: messages and bytes are counted once, in the
    *receive* direction — one message per (receiver, owner) pair per
    refresh (``plan.pairs[r]`` for rank ``r``) and one row payload per
    ghost copy received (``ghost_off[r + 1] - ghost_off[r]`` rows).
    The send side is the same traffic attributed to the owning ranks
    and is not counted again; the performance model
    (:func:`repro.parallel.simulate.scatter_counts`) reads both
    directions from this plan, so the bytes it prices per refresh are
    the bytes booked here.  Both counts are taken from the plan, so a
    refresh executed elsewhere — in the pool's workers, or in the
    compiled seq matvec's one C call — books the same numbers
    (:meth:`account_refresh`) without this object seeing the data.  The
    recorder's ``messages`` / ``bytes`` counters are the one ledger.
    """

    def __init__(self, layout: SPMDLayout, ncomp: int, *,
                 recorder=NULL_RECORDER) -> None:
        self.layout = layout
        self.ncomp = ncomp
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    @property
    def pair_count(self) -> int:
        """Number of (receiver, owner) pairs one refresh touches."""
        return self.layout.plan.pair_count

    @property
    def ghost_rows(self) -> int:
        """Total ghost copies received by one refresh."""
        return self.layout.plan.ghost_rows

    def account_refresh(self, itemsize: int, per_rank_s=None) -> None:
        """Book one refresh of ``itemsize``-byte values executed
        elsewhere: the proc backend moves the payloads inside the worker
        processes, the compiled seq matvec inside its C call.  Every
        receiving rank books its messages and bytes; given
        ``per_rank_s``, each rank's measured refresh seconds, it also
        books a ``ghost_exchange`` span of its time, and the
        max-over-ranks wait is recorded."""
        plan = self.layout.plan
        rec = self.recorder
        rowbytes = self.ncomp * int(itemsize)
        for r in plan.receivers:
            rec.count("messages", plan.pairs[r], rank=r)
            rec.count("bytes", int(plan.ghost_off[r + 1] - plan.ghost_off[r])
                      * rowbytes, rank=r)
        if per_rank_s is None or not plan.receivers:
            return
        waits = [0.0] * len(plan.bounds)
        for r in plan.receivers:
            waits[r] = float(per_rank_s[r])
            rec.add_span_seconds("ghost_exchange", waits[r], rank=r)
        rec.record_wait("ghost_exchange", waits)

    def refresh(self, buf: np.ndarray) -> None:
        """Fill the ghost rows of the flat buffer ``buf`` in place.

        ``buf`` is a :meth:`ScatterPlan.distribute` buffer of shape
        ``(plan.total_rows, ncomp)``: every rank's owned rows are
        current, its ghost rows are about to be overwritten.  Each
        receiving rank's copy is timed and booked as
        :meth:`account_refresh` books a refresh made elsewhere.
        """
        plan = self.layout.plan
        per_rank_s = [0.0] * len(plan.bounds)
        for r in plan.receivers:
            t0 = time.perf_counter()
            plan.refresh_rank(buf, r)
            per_rank_s[r] = time.perf_counter() - t0
        self.account_refresh(buf.itemsize, per_rank_s)


def rank_residual(disc: EdgeFVDiscretization, layout: SPMDLayout, r: int,
                  local_q_r: np.ndarray,
                  edge_normals: np.ndarray | None = None) -> np.ndarray:
    """Rank ``r``'s first-order residual on its local rows.

    The discretisation's own
    :meth:`~repro.euler.discretization.EdgeFVDiscretization.first_order_residual`
    over the rank's local world: its edges and owned boundary rows
    from the layout's :class:`ScatterPlan`, its normals from ``disc``
    on each call, or ``edge_normals``, the rank's pre-gathered edge
    normals (the pool workers cache them); values are identical either
    way.  Both executors, the sequential loop below and each pool
    worker, call exactly this function, so seq/proc bitwise identity
    is structural, and both run the global residual's flux loop.
    """
    plan = layout.plan
    s = (disc.dual.edge_normals[layout.ranks[r].edge_ids]
         if edge_normals is None else edge_normals)
    return disc.first_order_residual(local_q_r, plan.e0[r], plan.e1[r], s,
                                     plan.boundary(disc.bc)[r])


def rank_matvec_structs(indptr: np.ndarray, indices: np.ndarray,
                        plan: ScatterPlan, ranks) -> MatvecGather:
    """The gather pattern of the distributed SpMV on ``ranks``, in
    that order, in one pass over their owned rows.

    For each rank: the flat block slots of its owned rows, their local
    column indices (the layout's global -> local map) and the owned-row
    segment ids.  Depends only on the matrix *pattern* (``indptr`` /
    ``indices``) and the layout, so the seq executor keeps one for
    every rank (:meth:`ScatterPlan.gather`) and each pool worker
    computes one for its ranks once per matrix.
    """
    f = plan._flat
    ranks = np.asarray(ranks, dtype=np.int64)
    own_cnt = f.own_off[ranks + 1] - f.own_off[ranks]
    rows = f.owned[concat_ranges(f.own_off[ranks], own_cnt)]
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    flat = concat_ranges(starts, counts)
    local = _key_map(plan.owner, f.owned, f.own_off, f.ghosts, f.ghost_off)
    block_rank = np.repeat(np.repeat(ranks, own_cnt), counts)
    cols = local(block_rank, indices[flat])
    if np.any(cols < 0):
        raise ValueError("matrix couples beyond the ghost layer")
    seg = np.repeat(concat_ranges(np.zeros_like(ranks), own_cnt), counts)
    blk_off = _offsets(counts)[_offsets(own_cnt)]
    return MatvecGather(blk_off, flat, cols, seg)


def rank_matvec(data_rows: np.ndarray, cols: np.ndarray, seg: np.ndarray,
                local_x_r: np.ndarray, n_owned: int,
                workspace: tuple | None = None,
                engine: str = "numpy") -> np.ndarray:
    """One rank's owned SpMV rows: block-gemv the gathered blocks and
    segment-sum per owned row.  Shared by the proc workers and the
    numpy ``seq`` loop (see :func:`rank_residual`).

    ``data_rows`` are the rank's blocks, ``data[flat]`` for the
    ``flat`` of :func:`rank_matvec_structs`.
    ``workspace`` is an optional ``(gathered, prods)`` buffer pair that
    persistent proc workers reuse across calls — allocating these
    multi-MB temporaries fresh costs a page-fault sweep per matvec.
    ``np.take``/``np.einsum`` into a preallocated buffer compute the
    same values as the allocating forms, so results are bitwise
    identical either way (asserted by the proc-backend tests).
    ``engine="compiled"`` runs the gather + block-gemv + scatter as one
    fused compiled pass (ULP-bounded vs the einsum path, bitwise the
    compiled seq matvec's one call, so seq/proc identity is preserved).
    """
    if engine != "numpy":
        y = _kernels.gather_spmv_bsr(data_rows, cols, seg, local_x_r,
                                     n_owned, engine)
        if y is not None:
            return y
    if workspace is None:
        prods = np.einsum("kij,kj->ki", data_rows, local_x_r[cols])
    else:
        gathered, prods = workspace
        np.take(local_x_r, cols, axis=0, out=gathered)
        np.einsum("kij,kj->ki", data_rows, gathered, out=prods)
    return segment_sum(seg, prods, n_owned)


def _resolve_pool(executor):
    """Map the ``executor`` knob to a worker pool, or ``None`` for the
    in-process rank loop: ``None``/"seq" run in-process, a
    :class:`~repro.parallel.procpool.ProcPool` instance runs the call."""
    if executor is None or executor == "seq":
        return None
    from repro.parallel.procpool import ProcPool    # imports this module
    if isinstance(executor, ProcPool):
        return executor
    raise ValueError(f"unknown executor {executor!r} "
                     f"(expected 'seq' or a ProcPool instance)")


def distributed_residual(disc: EdgeFVDiscretization, layout: SPMDLayout,
                         qglobal: np.ndarray, *, recorder=NULL_RECORDER,
                         executor="seq") -> np.ndarray:
    """First-order residual computed rank by rank on local data.

    Each rank evaluates fluxes on its local edge set with purely local
    state (ghosts refreshed by one exchange), accumulates only its
    owned rows, and the owned rows are gathered into the global vector.
    Must equal ``disc.residual(q, second_order=False)`` exactly.  The
    result dtype follows ``qglobal`` (float32 in, float32 out).

    ``executor`` selects who runs the rank kernels: ``"seq"`` replays
    the ranks in-process (the loop below), a
    :class:`~repro.parallel.procpool.ProcPool` built on ``layout`` runs
    them in its worker processes over shared memory — bitwise-identical,
    because both run the same rank kernels on exact copies.  A pool
    call is one coordinator-side ``flux`` span and the exchange's
    messages and bytes; the seq loop books a span per rank plus the
    exchange's spans and the waits.
    """
    ncomp = disc.ncomp
    rec = recorder if recorder is not None else NULL_RECORDER
    ex = GhostExchange(layout, ncomp, recorder=rec)
    pool = _resolve_pool(executor)
    if pool is not None:
        with rec.span("flux"):
            r = pool.residual(qglobal)
        ex.account_refresh(r.itemsize)
    else:
        plan = layout.plan
        buf = plan.distribute(qglobal, ncomp)
        ex.refresh(buf)
        # Every vertex has one owner (the plan checked), so every row
        # of ``out`` is written below.
        out = np.empty((disc.mesh.num_vertices, ncomp), dtype=buf.dtype)
        per_rank_s = [0.0] * layout.nranks
        for rd in layout.ranks:
            with rec.span("flux", rank=rd.rank) as sp:
                r_local = rank_residual(disc, layout, rd.rank,
                                        plan.local(buf, rd.rank))
                out[rd.owned] = r_local[: rd.n_owned]
            per_rank_s[rd.rank] = sp.elapsed
        rec.record_wait("flux", per_rank_s)
        r = out.ravel()
    _sanitize_note("residual", r)
    return r


def distributed_matvec(a: BSRMatrix, layout: SPMDLayout,
                       xglobal: np.ndarray, *, recorder=NULL_RECORDER,
                       executor="seq") -> np.ndarray:
    """y = A x computed rank by rank: each rank holds its owned block
    rows (whose columns reach only owned + ghost vertices) and local x;
    one exchange refreshes the ghosts first.

    As in the Krylov solvers, the working precision follows the vector:
    the result and all rank-local arrays take ``xglobal``'s dtype.
    ``executor`` is as in :func:`distributed_residual`.

    On the compiled tier the seq executor is one C call over every rank
    (:func:`repro.kernels.seq_matvec_bsr`, through the plan's arrays and
    its :class:`MatvecGather`), bitwise the per-rank compiled kernel;
    each rank's ``ghost_exchange`` and ``matvec`` spans and waits are
    booked from the times it returns.  The numpy tier runs the ranks one
    by one, the oracle.
    """
    bs = a.bs
    rec = recorder if recorder is not None else NULL_RECORDER
    ex = GhostExchange(layout, bs, recorder=rec)
    pool = _resolve_pool(executor)
    if pool is not None:
        with rec.span("matvec"):
            y = pool.matvec(a, xglobal)
        ex.account_refresh(y.itemsize)
        _sanitize_note("matvec", y)
        return y
    plan = layout.plan
    gather = plan.gather(a)
    x = np.asarray(xglobal)
    res = _kernels.seq_matvec_bsr(plan.home, plan.row_off, plan.ghost_off,
                                  plan.ghost_src, *gather, a.data, x,
                                  a.engine)
    if res is not None:
        y, times = res
        ex.account_refresh(x.dtype.itemsize, times[:, 0])
        for r, t in enumerate(times[:, 1]):
            rec.add_span_seconds("matvec", t, rank=r)
        rec.record_wait("matvec", times[:, 1])
        y = y.astype(x.dtype, copy=False)
    else:
        buf = plan.distribute(x, bs)
        ex.refresh(buf)
        out = np.empty((a.nbrows, bs), dtype=buf.dtype)
        per_rank_s = [0.0] * layout.nranks
        for rd in layout.ranks:
            flat, cols, seg = gather.rank(rd.rank)
            with rec.span("matvec", rank=rd.rank) as sp:
                out[rd.owned] = rank_matvec(a.data[flat], cols, seg,
                                            plan.local(buf, rd.rank),
                                            rd.n_owned)
            per_rank_s[rd.rank] = sp.elapsed
        rec.record_wait("matvec", per_rank_s)
        y = out.ravel()
    _sanitize_note("matvec", y)
    return y
