"""Functional SPMD execution of the partitioned kernels.

The other modules in this package *price* communication; this one
*performs* it.  Each rank owns its labelled vertices, holds ghost
copies of off-rank neighbours, and computes with purely local arrays;
a :class:`GhostExchange` step refreshes the ghosts (the VecScatter).
Running the flux loop and SpMV this way and comparing owned rows
against the sequential kernels validates the exchange plans and the
halo bookkeeping with real data — the correctness side of the Table 3
machinery.

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

from dataclasses import dataclass, field

import numpy as np

from repro import kernels as _kernels
from repro.euler.discretization import EdgeFVDiscretization
from repro.sanitize.statehash import note as _sanitize_note
from repro.sparse.bsr import BSRMatrix
from repro.sparse.segsum import concat_ranges, segment_sum
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["RankLocalData", "SPMDLayout", "GhostExchange",
           "distributed_residual", "distributed_matvec",
           "rank_residual", "rank_matvec", "rank_matvec_structs",
           "gather_structs"]


@dataclass
class RankLocalData:
    """One rank's local index world.

    ``local_vertices`` = owned then ghosts (global ids); all per-rank
    arrays are indexed by local position.  ``edge_ids`` are the global
    edges with at least one owned endpoint (halo edges appear on both
    sharing ranks, recomputed redundantly — as in the real code).
    """

    rank: int
    owned: np.ndarray             # global vertex ids, sorted
    ghosts: np.ndarray            # global vertex ids, sorted
    edge_ids: np.ndarray          # global edge ids of the local edge set
    local_edges: np.ndarray       # (m, 2) local indices of those edges
    ghost_owner: np.ndarray       # owning rank of each ghost

    @property
    def local_vertices(self) -> np.ndarray:
        return np.concatenate([self.owned, self.ghosts])

    @property
    def n_owned(self) -> int:
        return int(self.owned.size)

    @property
    def n_local(self) -> int:
        return self.n_owned + int(self.ghosts.size)


@dataclass
class SPMDLayout:
    """The full set of rank-local worlds for one partition.

    ``gather_cache`` holds the per-rank SpMV gather structures keyed by
    matrix pattern (see :func:`gather_structs`); it is layout-owned so
    warm services can seed it across solves.
    """

    labels: np.ndarray
    ranks: list[RankLocalData] = field(default_factory=list)
    gather_cache: dict = field(default_factory=dict, repr=False,
                               compare=False)

    @property
    def nranks(self) -> int:
        return len(self.ranks)

    @classmethod
    def build(cls, edges: np.ndarray, labels: np.ndarray) -> "SPMDLayout":
        labels = np.asarray(labels, dtype=np.int64)
        edges = np.asarray(edges, dtype=np.int64)
        nranks = int(labels.max()) + 1 if labels.size else 0
        layout = cls(labels=labels)
        la = labels[edges[:, 0]]
        lb = labels[edges[:, 1]]
        for r in range(nranks):
            owned = np.where(labels == r)[0]
            emask = (la == r) | (lb == r)
            eids = np.where(emask)[0]
            le = edges[eids]
            ghosts = np.setdiff1d(np.unique(le), owned)
            # Global -> local translation table.
            lv = np.concatenate([owned, ghosts])
            lut = np.full(labels.size, -1, dtype=np.int64)
            lut[lv] = np.arange(lv.size, dtype=np.int64)
            local_edges = lut[le]
            layout.ranks.append(RankLocalData(
                rank=r, owned=owned, ghosts=ghosts, edge_ids=eids,
                local_edges=local_edges, ghost_owner=labels[ghosts]))
        return layout


class GhostExchange:
    """The scatter: refresh every rank's ghost values from the owners.

    Executed pairwise so message counts and payloads are observable.
    Accounting convention (matching
    :class:`repro.parallel.scatter.GhostExchangePlan`): messages and
    bytes are counted once, in the *receive* direction — one message
    per (receiver, owner) pair per refresh (``GhostExchangePlan.
    neighbors`` summed over ranks) and one payload per ghost copy
    received (``GhostExchangePlan.recv_bytes``).  The send-side view is
    the same traffic attributed to the owning ranks
    (``GhostExchangePlan.send_bytes``); it is not double-counted here.
    ``messages`` and ``bytes_moved`` accumulate across calls.
    """

    def __init__(self, layout: SPMDLayout, ncomp: int, *,
                 recorder=NULL_RECORDER) -> None:
        self.layout = layout
        self.ncomp = ncomp
        self.messages = 0
        self.bytes_moved = 0
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    @property
    def pair_count(self) -> int:
        """Number of (receiver, owner) pairs one refresh touches."""
        return sum(int(np.unique(rd.ghost_owner).size)
                   for rd in self.layout.ranks)

    @property
    def ghost_rows(self) -> int:
        """Total ghost copies received by one refresh."""
        return sum(int(rd.ghosts.size) for rd in self.layout.ranks)

    def account_refresh(self, itemsize: int) -> None:
        """Book one refresh executed elsewhere (the proc backend moves
        the payloads inside the worker processes; the counts are a
        property of the layout, so the coordinator can account them
        without seeing the data)."""
        self.messages += self.pair_count
        self.bytes_moved += self.ghost_rows * self.ncomp * int(itemsize)

    def refresh(self, local_q: list[np.ndarray]) -> None:
        """Update the ghost tail of each rank's local state in place.

        ``local_q[r]`` has shape (n_local_r, ncomp): owned rows first.
        Raises :class:`ValueError` if any ghost id is not actually
        present in its owner's ``owned`` array — ``np.searchsorted``
        on a stale layout would otherwise silently pick a wrong row.
        """
        layout = self.layout
        rec = self.recorder
        per_rank_s = [0.0] * layout.nranks
        # Owner-side lookup: global id -> (rank, owned position).
        for r, rd in enumerate(layout.ranks):
            if rd.ghosts.size == 0:
                continue
            with rec.span("ghost_exchange", rank=r) as sp:
                for owner in np.unique(rd.ghost_owner):
                    sel = rd.ghost_owner == owner
                    gids = rd.ghosts[sel]
                    src = layout.ranks[int(owner)]
                    pos = np.searchsorted(src.owned, gids)
                    if src.owned.size == 0:
                        found = np.zeros(gids.shape, dtype=bool)
                    else:
                        found = ((pos < src.owned.size)
                                 & (src.owned[np.minimum(
                                     pos, src.owned.size - 1)] == gids))
                    if not found.all():
                        missing = gids[~found]
                        raise ValueError(
                            f"stale SPMD layout: rank {r} expects ghosts "
                            f"{missing.tolist()} from rank {int(owner)}, "
                            f"which does not own them")
                    payload = local_q[int(owner)][pos]          # owned rows
                    local_q[r][rd.n_owned + np.where(sel)[0]] = payload
                    self.messages += 1
                    self.bytes_moved += payload.size * payload.itemsize
                    rec.count("messages", 1, rank=r)
                    rec.count("bytes", payload.size * payload.itemsize,
                              rank=r)
            per_rank_s[r] = sp.elapsed
        if self.messages:
            rec.record_wait("ghost_exchange", per_rank_s)


def _scatter_local_state(layout: SPMDLayout, qglobal: np.ndarray,
                         ncomp: int) -> list[np.ndarray]:
    """Initial distribution: each rank receives only its owned rows
    (ghost rows start as garbage and must come from an exchange).

    Local arrays take ``qglobal``'s dtype — a bare ``np.full`` would
    default to float64 and silently promote float32 state.
    """
    q = qglobal.reshape(-1, ncomp)
    out = []
    for rd in layout.ranks:
        local = np.full((rd.n_local, ncomp), np.nan, dtype=q.dtype)
        local[: rd.n_owned] = q[rd.owned]
        out.append(local)
    return out


def rank_residual(disc: EdgeFVDiscretization, rd: RankLocalData,
                  local_q_r: np.ndarray, out_dtype,
                  edge_normals: np.ndarray | None = None) -> np.ndarray:
    """One rank's first-order residual on its local rows.

    The single rank-local kernel both executors run: the sequential
    loop below and each pool worker call exactly this function, so
    seq/proc bitwise identity is structural, not empirical.
    ``edge_normals`` may be the pre-gathered per-rank normals (the pool
    workers cache them); values are identical either way.
    """
    from repro.euler.fluxes import rusanov_flux, rusanov_model

    ncomp = disc.ncomp
    if rd.local_edges.size == 0:
        r_local = np.zeros((rd.n_local, ncomp), dtype=out_dtype)
    else:
        e0 = rd.local_edges[:, 0]
        e1 = rd.local_edges[:, 1]
        s = (disc.dual.edge_normals[rd.edge_ids]
             if edge_normals is None else edge_normals)
        engine = getattr(disc, "engine", "numpy")

        compiled_f64 = (engine != "numpy"
                        and np.dtype(out_dtype) == np.float64)
        model = rusanov_model(disc) if compiled_f64 else None
        ql = local_q_r[e0]
        qr = local_q_r[e1]
        acc = None      # per-vertex flux sums over (e0, e1) endpoints
        if model is not None:
            # End-to-end compiled interior leg: flux arithmetic and
            # scatter in one pass.  Same normwise contract as the numpy
            # flux + compiled scatter; both executors share this
            # kernel, so seq == proc is preserved structurally.
            acc = _kernels.rusanov_scatter(e0, e1, ql, qr, s, rd.n_local,
                                           model[0], model[1], engine)
        if acc is None:
            f = rusanov_flux(ql, qr, s, disc._flux, disc._wavespeed)
            if compiled_f64:
                acc = _kernels.edge_scatter2(e0, e1, f, f, rd.n_local,
                                             engine)
            if acc is None:
                acc = (segment_sum(e0, f, rd.n_local),
                       segment_sum(e1, f, rd.n_local))
        r_local = acc[0] - acc[1]
    # Boundary closures on owned boundary vertices.
    bc = disc.bc
    bmask = np.isin(bc.vertices, rd.owned, assume_unique=False)
    if bmask.any():
        bv = bc.vertices[bmask]
        lpos = np.searchsorted(rd.owned, bv)
        qb = local_q_r[lpos]
        kinds = bc.kinds[bmask]
        normals = bc.normals[bmask]
        wall = kinds == bc.WALL
        if wall.any():
            r_local[lpos[wall]] += disc._wall_flux(qb[wall], normals[wall])
        far = ~wall
        if far.any():
            qe = np.broadcast_to(disc.farfield_state, qb[far].shape)
            r_local[lpos[far]] += rusanov_flux(
                qb[far], qe, normals[far], disc._flux, disc._wavespeed)
    return r_local


def rank_matvec_structs(a: BSRMatrix, rd: RankLocalData):
    """Per-rank gather pattern of the distributed SpMV.

    Returns ``(flat, cols, seg)``: the flat block slots of the rank's
    owned rows, their local column indices, and the owned-row segment
    ids.  Depends only on the matrix *pattern* and the layout, so the
    proc backend computes it once per matrix and reuses it every call.
    """
    lut = np.full(a.nbrows, -1, dtype=np.int64)
    lut[rd.local_vertices] = np.arange(rd.n_local, dtype=np.int64)
    starts = a.indptr[rd.owned]
    counts = a.indptr[rd.owned + 1] - starts
    flat = concat_ranges(starts, counts)
    cols = lut[a.indices[flat]]
    if np.any(cols < 0):
        raise ValueError("matrix couples beyond the ghost layer")
    seg = np.repeat(np.arange(rd.owned.size, dtype=np.int64), counts)
    return flat, cols, seg


def gather_structs(a, layout: SPMDLayout, rd: RankLocalData):
    """Layout-cached :func:`rank_matvec_structs`.

    The gather structure depends only on the matrix *pattern*
    (``indptr``/``indices``) and the layout, so one copy per rank is
    kept on ``layout.gather_cache`` and reused across matvecs — the
    sequential analogue of the proc workers' per-matrix struct cache,
    and the seam a warm solver service seeds across requests.
    Validity is an object-identity fast path on the pattern arrays
    with an ``np.array_equal`` fallback (O(nnz) compares are noise
    next to the einsum matvec); a pattern change recomputes.
    """
    cache = layout.gather_cache
    ent = cache.get(rd.rank)
    if ent is not None:
        indptr, indices, structs = ent
        if indptr is a.indptr and indices is a.indices:
            return structs
        if (indptr.shape == a.indptr.shape
                and indices.shape == a.indices.shape
                and np.array_equal(indptr, a.indptr)
                and np.array_equal(indices, a.indices)):
            cache[rd.rank] = (a.indptr, a.indices, structs)
            return structs
    structs = rank_matvec_structs(a, rd)
    cache[rd.rank] = (a.indptr, a.indices, structs)
    return structs


def rank_matvec(data_rows: np.ndarray, cols: np.ndarray, seg: np.ndarray,
                local_x_r: np.ndarray, n_owned: int,
                workspace: tuple | None = None,
                engine: str = "numpy",
                flat: np.ndarray | None = None) -> np.ndarray:
    """One rank's owned SpMV rows: block-gemv the gathered blocks and
    segment-sum per owned row.  Shared by both executors (see
    :func:`rank_residual`).

    ``data_rows`` are the rank's blocks, pre-gathered (the proc
    workers), or — given ``flat``, the slots of
    :func:`rank_matvec_structs` — the whole matrix's ``data``, from
    which the compiled kernel reads each block in place and the numpy
    path gathers ``data_rows[flat]`` (the ``seq`` loop).  The blocks,
    and so the results, are the same either way.
    ``workspace`` is an optional ``(gathered, prods)`` buffer pair that
    persistent proc workers reuse across calls — allocating these
    multi-MB temporaries fresh costs a page-fault sweep per matvec.
    ``np.take``/``np.einsum`` into a preallocated buffer compute the
    same values as the allocating forms, so results are bitwise
    identical either way (asserted by the proc-backend tests).
    ``engine="compiled"`` runs the gather + block-gemv + scatter as one
    fused compiled pass (ULP-bounded vs the einsum path; both executors
    pass the same engine, so seq/proc identity is preserved).
    """
    if engine != "numpy":
        y = _kernels.gather_spmv_bsr(data_rows, cols, seg, local_x_r,
                                     n_owned, engine, flat=flat)
        if y is not None:
            return y
    if flat is not None:
        data_rows = data_rows[flat]
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
                         qglobal: np.ndarray,
                         exchange: GhostExchange | None = None,
                         *, recorder=NULL_RECORDER,
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
    call is one coordinator-side ``flux`` span; the seq loop books one
    per rank plus the exchange and the waits.
    """
    ncomp = disc.ncomp
    rec = recorder if recorder is not None else NULL_RECORDER
    pool = _resolve_pool(executor)
    if pool is not None:
        with rec.span("flux"):
            r = pool.residual(qglobal, exchange=exchange)
    else:
        ex = exchange or GhostExchange(layout, ncomp, recorder=rec)
        local_q = _scatter_local_state(layout, qglobal, ncomp)
        ex.refresh(local_q)
        out = np.zeros((disc.mesh.num_vertices, ncomp),
                       dtype=qglobal.dtype)
        per_rank_s = [0.0] * layout.nranks
        for rd in layout.ranks:
            with rec.span("flux", rank=rd.rank) as sp:
                r_local = rank_residual(disc, rd, local_q[rd.rank],
                                        out.dtype)
                out[rd.owned] = r_local[: rd.n_owned]
            per_rank_s[rd.rank] = sp.elapsed
        rec.record_wait("flux", per_rank_s)
        r = out.ravel()
    _sanitize_note("residual", r)
    return r


def distributed_matvec(a: BSRMatrix, layout: SPMDLayout,
                       xglobal: np.ndarray,
                       exchange: GhostExchange | None = None,
                       *, recorder=NULL_RECORDER,
                       executor="seq") -> np.ndarray:
    """y = A x computed rank by rank: each rank holds its owned block
    rows (whose columns reach only owned + ghost vertices) and local x;
    one exchange refreshes the ghosts first.

    As in the Krylov solvers, the working precision follows the vector:
    the result and all rank-local arrays take ``xglobal``'s dtype.
    ``executor`` is as in :func:`distributed_residual`.
    """
    bs = a.bs
    rec = recorder if recorder is not None else NULL_RECORDER
    pool = _resolve_pool(executor)
    if pool is not None:
        with rec.span("matvec"):
            y = pool.matvec(a, xglobal, exchange=exchange)
    else:
        ex = exchange or GhostExchange(layout, bs, recorder=rec)
        local_x = _scatter_local_state(layout, xglobal, bs)
        ex.refresh(local_x)
        out = np.zeros((a.nbrows, bs), dtype=xglobal.dtype)
        per_rank_s = [0.0] * layout.nranks
        for rd in layout.ranks:
            with rec.span("matvec", rank=rd.rank) as sp:
                # All owned block rows as one flat batch; the gather
                # structure depends only on (pattern, layout), so it is
                # served from the layout-level cache across calls, and
                # the blocks are read in place through its slots.
                flat, cols, seg = gather_structs(a, layout, rd)
                out[rd.owned] = rank_matvec(a.data, cols, seg,
                                            local_x[rd.rank], rd.n_owned,
                                            engine=a.engine, flat=flat)
            per_rank_s[rd.rank] = sp.elapsed
        rec.record_wait("matvec", per_rank_s)
        y = out.ravel()
    _sanitize_note("matvec", y)
    return y
