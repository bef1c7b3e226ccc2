"""Process-parallel SPMD residual and matvec over POSIX shared memory.

The paper's parallel numbers come from ranks that really run
concurrently; :mod:`repro.parallel.spmd` replays them rank by rank in
one process.  This module is the concurrent instrument beside it: a
pool of forked worker processes, each owning a fixed subset of the
layout's ranks, executing the *same* rank-local kernels
(:func:`~repro.parallel.spmd.rank_residual` /
:func:`~repro.parallel.spmd.rank_matvec`) over one zero-copy
``multiprocessing.shared_memory`` arena.  It is not a solver executor:
``table5-measured`` and the benchmark's ``parallel.proc_*`` rows call
it directly, as ``executor=pool`` of the distributed kernels.

Execution protocol (per operation)::

    main: write header, scatter every rank's owned input rows into
          the rank-local region               workers: wait on GO
    ---------------------- post GO(w) to every worker ---------------
    workers: gather ghost rows from the owners' regions  ("the
             VecScatter": pure copies, so payloads are bitwise the
             sequential exchange's), then run the rank kernels,
             write owned output rows, and post DONE(w)
    ---------------------- drain DONE(w), with timeout --------------
    main: read the output rows

The coordinator owns the global vector, so it scatters the owned rows
itself before posting GO — every ghost source is then already visible
and no intra-operation worker barrier is needed.  Synchronisation is a
per-worker GO/DONE semaphore pair rather than a shared barrier: every
coordinator-side wait is a *timed* acquire, so a worker that dies
mid-operation surfaces as :class:`ProcPoolError` instead of the
coordinator deadlocking inside the barrier's internal condition
variable (``multiprocessing.Barrier`` wakes sleepers one by one and
waits untimed for each acknowledgment — a dead sleeper hangs it).

Bitwise contract: every value a worker reads is an exact copy of what
the sequential executor reads, and the compute is the identical shared
kernel, so pool results equal ``executor="seq"`` results bit for bit
(asserted by tests/test_parallel_procpool.py).  Timing is the
caller's: the distributed kernels book one coordinator-side span per
pool call.  The workers keep no clock.

Speed: rank inputs/outputs cross process boundaries as shared-memory
rows (no pickling), and each worker keeps the per-rank static data —
the layout's scatter plan (the same one the seq executor applies:
owned-row scatter, ghost sources, boundary rows), gathered edge
normals, and per-matrix gather structures with contiguous block
copies — so the per-call cost is the
kernel itself plus ~0.2 ms of synchronisation latency.  On a single
core the caching is the whole win; on multi-core hardware rank
compute overlaps across workers as in the real code.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.parallel.spmd import (SPMDLayout, rank_matvec,
                                 rank_matvec_structs, rank_residual)

__all__ = ["ProcPool", "ProcPoolError"]


class ProcPoolError(RuntimeError):
    """A worker failed, died, or the pool was used after close()."""


# Header slots (int64).
_H_OP = 0          # opcode of the current command
_H_DTYPE = 1       # vector dtype code (index into _DTYPES)
_H_NCOMP = 2       # components per row of the current command
_H_ERR = 3         # set to 1 by any worker that raised
_H_MAT_TOKEN = 4   # generation counter of the loaded matrix
_H_MAT_NNZB = 5    # block count of the matrix being loaded
_H_MAT_BS = 6      # block size of the matrix being loaded
_H_MAT_DTYPE = 7   # data dtype code of the matrix being loaded
_H_MAT_ENGINE = 8  # kernel tier of the matrix (0 numpy, 1 compiled)
_HDR_SLOTS = 9

_OP_SHUTDOWN = 0
_OP_RESIDUAL = 1
_OP_MATVEC = 2
_OP_LOAD_MATRIX = 3

_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))
_NAME_BYTES = 128   # shm segment name region (ASCII, zero-padded)


def _dtype_code(dtype) -> int:
    dtype = np.dtype(dtype)
    if dtype not in _DTYPES:
        raise TypeError(f"unsupported dtype {dtype} "
                        f"(supported: {[str(d) for d in _DTYPES]})")
    return _DTYPES.index(dtype)


def _align(nbytes: int) -> int:
    return (int(nbytes) + 63) & ~63


def _cleanup_segments(state: dict) -> None:
    """Unlink every segment the pool still owns — the crash-path
    counterpart of ``close()``.

    Runs as a ``weakref.finalize`` callback (so a coordinator exception,
    SIGINT, or plain garbage collection all reach it) and at the end of
    the happy-path ``close()``.  Forked workers inherit the finalizer
    registry, so the pid guard keeps a child exit from unlinking the
    parent's live segments.  ``unlink`` runs before ``close`` because
    removing the ``/dev/shm`` name is the part that stops the leak;
    ``close`` may legitimately fail with ``BufferError`` while numpy
    views on the buffer are still alive.
    """
    if os.getpid() != state["pid"]:
        return
    for seg in state["segs"]:
        try:
            seg.unlink()
        except Exception:
            pass
        try:
            seg.close()
        except Exception:
            pass
    state["segs"].clear()


class ProcPool:
    """Persistent worker pool running a layout's ranks in processes.

    Parameters
    ----------
    layout:
        The :class:`~repro.parallel.spmd.SPMDLayout` to execute; pass
        the pool as ``executor=`` of the distributed kernels on it.
    disc:
        The discretisation whose rank-local residual the pool runs.
        Workers fork with it as it is now, ``disc.engine`` included.
    nworkers:
        Worker process count; must be ``>= 1`` (raises
        :class:`ProcPoolError` otherwise), clamped to ``nranks`` —
        extra workers would own no ranks.  Oversubscription past
        ``os.cpu_count()`` is allowed (the OS time-slices).  Ranks are
        dealt round-robin (worker ``w`` owns ranks
        ``w, w+nworkers, ...``).
    timeout:
        Seconds the coordinator waits for worker completion before
        declaring the pool broken (a worker died mid-operation).

    Use as a context manager; ``close()`` shuts the workers down and
    unlinks every shared-memory segment.  A ``weakref.finalize`` guard
    unlinks the segments even when ``close()`` never runs (coordinator
    exception, SIGINT, interpreter exit), so ``/dev/shm`` is never
    leaked.
    """

    def __init__(self, layout: SPMDLayout, disc, nworkers: int | None = None,
                 *, timeout: float = 60.0) -> None:
        if layout.nranks == 0:
            raise ValueError("cannot pool an empty layout")
        self.layout = layout
        self.disc = disc
        self.ncomp = int(disc.ncomp)
        self.n = int(disc.mesh.num_vertices)
        if nworkers is None:
            nworkers = min(layout.nranks, os.cpu_count() or 1)
        if int(nworkers) < 1:
            raise ProcPoolError(f"nworkers must be >= 1, got {nworkers!r}")
        self.nworkers = min(int(nworkers), layout.nranks)
        self._timeout = float(timeout)
        self._owner_pid = os.getpid()
        self._closed = False
        self._broken = False
        self._mat = None              # the BSRMatrix currently loaded
        self._mat_seg = None          # its shm segment (owner side)
        self._mat_token = 0

        self._precompute()
        self._create_arena()
        # Crash-path segment guard: everything the pool creates is
        # registered here; the finalizer unlinks whatever close()
        # never got to (idempotent — close() invokes it too).
        self._cleanup_state = {"pid": self._owner_pid,
                               "segs": [self._shm]}
        self._finalizer = weakref.finalize(self, _cleanup_segments,
                                           self._cleanup_state)
        ctx = mp.get_context("fork")
        # Per-worker GO/DONE pairs: each worker only ever touches its
        # own, so a fast worker cannot steal a slow one's release.
        self._go = [ctx.Semaphore(0) for _ in range(self.nworkers)]
        self._done = [ctx.Semaphore(0) for _ in range(self.nworkers)]
        self._res_q = ctx.SimpleQueue()
        self._worker_ranks = [list(range(w, layout.nranks, self.nworkers))
                              for w in range(self.nworkers)]
        self._procs = [ctx.Process(target=self._worker_main, args=(w,),
                                   daemon=True, name=f"spmd-worker-{w}")
                       for w in range(self.nworkers)]
        for p in self._procs:
            p.start()

    # -- setup (runs pre-fork; workers inherit it copy-on-write) -------
    def _precompute(self) -> None:
        # The layout's scatter plan (built and ownership-checked here if
        # no seq call built it yet) lays out the shared locals region
        # and drives both halves of the exchange.  The boundary rows
        # and per-rank edge normals of the pool's disc are read now, so
        # the workers inherit them.
        plan = self.layout.plan
        self.total_local = plan.total_rows
        plan.boundary(self.disc.bc)
        self._normals = [self.disc.dual.edge_normals[rd.edge_ids]
                         for rd in self.layout.ranks]

    def _create_arena(self) -> None:
        rowbytes = self.ncomp * 8            # capacity sized for float64
        off = 0
        self._off_hdr = off
        off = _align(off + _HDR_SLOTS * 8)
        self._off_name = off
        off = _align(off + _NAME_BYTES)
        self._off_out = off
        off = _align(off + self.n * rowbytes)
        self._off_locals = off
        off = _align(off + max(self.total_local, 1) * rowbytes)
        self._shm = shared_memory.SharedMemory(create=True, size=off)
        self._hdr = np.ndarray(_HDR_SLOTS, dtype=np.int64,
                               buffer=self._shm.buf, offset=self._off_hdr)
        self._hdr[:] = 0

    def _view2d(self, offset: int, rows: int, ncols: int,
                dtype) -> np.ndarray:
        return np.ndarray((rows, ncols), dtype=dtype, buffer=self._shm.buf,
                          offset=offset)

    @property
    def shm_name(self) -> str:
        return self._shm.name

    @property
    def mat_shm_name(self) -> str | None:
        return self._mat_seg.name if self._mat_seg is not None else None

    @property
    def closed(self) -> bool:
        return self._closed

    # -- coordinator-side protocol -------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ProcPoolError("pool is closed")
        if self._broken:
            raise ProcPoolError("pool is broken (a worker died); "
                                "close() and build a new pool")

    def _post_go(self) -> None:
        for sem in self._go:
            sem.release()

    def _drain_done(self) -> None:
        deadline = time.monotonic() + self._timeout
        for sem in self._done:
            if not sem.acquire(timeout=max(0.0, deadline
                                           - time.monotonic())):
                self._broken = True
                dead = [p.name for p in self._procs if not p.is_alive()]
                what = ", ".join(dead) if dead else "none — timeout"
                raise ProcPoolError(
                    f"worker sync timed out (dead workers: {what}); the "
                    f"pool is unusable, close() it")

    def _run(self, op: int, *, dtype_code: int = 0, ncomp: int = 0) -> None:
        self._check_open()
        hdr = self._hdr
        hdr[_H_OP] = op
        hdr[_H_DTYPE] = dtype_code
        hdr[_H_NCOMP] = ncomp
        hdr[_H_ERR] = 0
        self._post_go()                  # release workers into the op
        self._drain_done()               # wait for completion
        if hdr[_H_ERR]:
            raise ProcPoolError(self._drain_errors())

    def _drain_errors(self) -> str:
        msgs = []
        while not self._res_q.empty():
            kind, wid, payload = self._res_q.get()
            if kind == "error":
                msgs.append(f"[worker {wid}]\n{payload}")
        return "worker operation failed:\n" + "\n".join(msgs) \
            if msgs else "worker operation failed (no traceback captured)"

    def _scatter_locals(self, vec: np.ndarray,
                        ncomp: int) -> tuple[int, np.dtype]:
        """Scatter every rank's owned input rows into the rank-local
        region (the coordinator half of the exchange: ghost sources are
        visible the moment barrier A releases)."""
        v = np.asarray(vec)
        code = _dtype_code(v.dtype)
        if v.size != self.n * ncomp:
            raise ValueError(f"vector has {v.size} entries, layout needs "
                             f"{self.n} x {ncomp}")
        locs = self._view2d(self._off_locals, self.total_local, ncomp,
                            v.dtype)
        self.layout.plan.distribute(v, ncomp, out=locs)
        return code, v.dtype

    # -- public operations ---------------------------------------------
    def residual(self, qglobal: np.ndarray) -> np.ndarray:
        """First-order residual; equals the seq executor bit for bit."""
        self._check_open()
        ncomp = self.ncomp
        code, dtype = self._scatter_locals(qglobal, ncomp)
        self._run(_OP_RESIDUAL, dtype_code=code, ncomp=ncomp)
        return self._view2d(self._off_out, self.n, ncomp,
                            dtype).copy().ravel()

    def matvec(self, a, xglobal: np.ndarray) -> np.ndarray:
        """Distributed y = A x; equals the seq executor bit for bit."""
        self._check_open()
        self.set_matrix(a)
        bs = int(a.bs)
        code, dtype = self._scatter_locals(xglobal, bs)
        self._run(_OP_MATVEC, dtype_code=code, ncomp=bs)
        return self._view2d(self._off_out, self.n, bs, dtype).copy().ravel()

    def set_matrix(self, a) -> None:
        """Broadcast a BSR matrix; workers cache their rank structures.

        No-op when ``a`` is the already-loaded object, so per-iteration
        matvecs pay nothing and a refreshed Jacobian is rebroadcast.
        """
        if a is self._mat:
            return
        if int(a.nbrows) != self.n:
            raise ValueError(f"matrix has {a.nbrows} block rows, layout "
                             f"has {self.n} vertices")
        indptr = np.ascontiguousarray(a.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(a.indices, dtype=np.int64)
        values = np.ascontiguousarray(a.data)
        code = _dtype_code(values.dtype)
        nnzb = int(indices.size)
        bs = int(a.bs)
        size = _align((self.n + 1) * 8) + _align(nnzb * 8) \
            + _align(max(values.nbytes, 1))
        seg = shared_memory.SharedMemory(create=True, size=size)
        self._cleanup_state["segs"].append(seg)
        try:
            off = 0
            np.ndarray(self.n + 1, dtype=np.int64, buffer=seg.buf,
                       offset=off)[:] = indptr
            off = _align((self.n + 1) * 8)
            np.ndarray(nnzb, dtype=np.int64, buffer=seg.buf,
                       offset=off)[:] = indices
            off += _align(nnzb * 8)
            np.ndarray(values.shape, dtype=values.dtype, buffer=seg.buf,
                       offset=off)[:] = values
            hdr = self._hdr
            hdr[_H_MAT_TOKEN] = self._mat_token + 1
            hdr[_H_MAT_NNZB] = nnzb
            hdr[_H_MAT_BS] = bs
            hdr[_H_MAT_DTYPE] = code
            # The matrix's kernel tier rides the broadcast so every
            # worker's matvec runs the same engine as the seq executor.
            hdr[_H_MAT_ENGINE] = int(getattr(a, "engine", "numpy")
                                     == "compiled")
            self._set_name(seg.name)
            self._run(_OP_LOAD_MATRIX)
        except BaseException:
            self._cleanup_state["segs"].remove(seg)
            seg.close()
            seg.unlink()
            raise
        old = self._mat_seg
        self._mat_seg = seg
        self._mat = a
        self._mat_token += 1
        if old is not None:
            self._cleanup_state["segs"].remove(old)
            old.close()
            old.unlink()

    # -- shm name passing ----------------------------------------------
    def _set_name(self, name: str) -> None:
        raw = name.encode("ascii")
        if len(raw) >= _NAME_BYTES:
            raise ValueError(f"shm name too long: {name!r}")
        buf = np.ndarray(_NAME_BYTES, dtype=np.uint8, buffer=self._shm.buf,
                         offset=self._off_name)
        buf[:] = 0
        buf[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)

    def _get_name(self) -> str:
        buf = np.ndarray(_NAME_BYTES, dtype=np.uint8, buffer=self._shm.buf,
                         offset=self._off_name)
        raw = bytes(buf[buf != 0])
        return raw.decode("ascii")

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "ProcPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            if os.getpid() == self._owner_pid and not self._closed:
                self.close()
        except Exception:
            pass

    def _release_views(self) -> None:
        self._hdr = None

    def close(self) -> None:
        """Shut workers down, join them, and unlink every segment.

        Idempotent (repeated calls are no-ops) and safe from any
        state: a broken pool, a pool whose workers already died, or a
        half-constructed one.  Segment teardown is delegated to the
        ``weakref.finalize`` guard so the happy path and the crash
        path are the same code.
        """
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        if self._hdr is not None:
            self._hdr[_H_OP] = _OP_SHUTDOWN
            self._post_go()              # wake idle workers into exit
        for p in self._procs:
            p.join(timeout=10.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=10.0)
        self._res_q.close()
        self._release_views()
        self._mat_seg = None
        self._finalizer()   # unlink + close every registered segment

    # -- worker side -----------------------------------------------------
    # Everything below runs in the forked children.  They inherit the
    # arena mapping, the layout, and the precomputed per-rank statics
    # from the parent (copy-on-write, nothing pickled) and never
    # register or unlink shared memory themselves — the parent owns
    # every segment's lifetime.

    def _worker_main(self, wid: int) -> None:
        ranks = self._worker_ranks[wid]
        go = self._go[wid]
        done = self._done[wid]
        state = {"token": 0, "cache": {}, "ws": {}, "engine": "numpy"}
        try:
            while True:
                go.acquire()
                op = int(self._hdr[_H_OP])
                if op == _OP_SHUTDOWN:
                    break
                try:
                    if op in (_OP_RESIDUAL, _OP_MATVEC):
                        self._w_compute(ranks, op, state)
                    elif op == _OP_LOAD_MATRIX:
                        self._w_load_matrix(ranks, state)
                    else:
                        raise ProcPoolError(f"unknown opcode {op}")
                except BaseException:
                    self._hdr[_H_ERR] = 1
                    self._res_q.put(("error", wid,
                                     traceback.format_exc()))
                done.release()
        finally:
            self._release_views()

    def _w_compute(self, ranks, op: int, mats) -> None:
        """One bulk-synchronous residual/matvec: exchange, compute —
        the worker half of the protocol in the module doc (the
        coordinator scattered the owned rows before posting GO)."""
        layout = self.layout
        hdr = self._hdr
        dtype = _DTYPES[int(hdr[_H_DTYPE])]
        ncomp = int(hdr[_H_NCOMP])
        out = self._view2d(self._off_out, self.n, ncomp, dtype)
        locs = self._view2d(self._off_locals, self.total_local, ncomp, dtype)
        plan = layout.plan
        # Ghost gather: pure copies of the owners' owned rows — the
        # VecScatter, through the same plan as the seq exchange.
        for r in ranks:
            plan.refresh_rank(locs, r)
        # Compute: the shared rank kernels over the rank-local rows.
        for r in ranks:
            rd = layout.ranks[r]
            out[rd.owned] = self._w_rank_kernel(op, rd, plan.local(locs, r),
                                                mats)

    def _w_rank_kernel(self, op: int, rd, loc, mats):
        if op == _OP_RESIDUAL:
            r_local = rank_residual(self.disc, self.layout, rd.rank, loc,
                                    edge_normals=self._normals[rd.rank])
            return r_local[: rd.n_owned]
        if mats["token"] != int(self._hdr[_H_MAT_TOKEN]):
            raise ProcPoolError("matvec before matrix load")
        data_rows, cols, seg = mats["cache"][rd.rank]
        # Persistent per-(rank, dtype) gather/product buffers: fresh
        # multi-MB temporaries cost a page-fault sweep per call.
        key = (rd.rank, loc.dtype.str)
        ws = mats["ws"].get(key)
        if ws is None:
            bs = data_rows.shape[1]
            ws = (np.empty((cols.size, bs), dtype=loc.dtype),
                  np.empty((cols.size, bs),
                           dtype=np.result_type(data_rows, loc)))
            mats["ws"][key] = ws
        return rank_matvec(data_rows, cols, seg, loc, rd.n_owned,
                           workspace=ws, engine=mats["engine"])

    def _w_load_matrix(self, ranks, state) -> None:
        hdr = self._hdr
        nnzb = int(hdr[_H_MAT_NNZB])
        bs = int(hdr[_H_MAT_BS])
        dtype = _DTYPES[int(hdr[_H_MAT_DTYPE])]
        seg = shared_memory.SharedMemory(name=self._get_name())
        try:
            off = 0
            indptr = np.ndarray(self.n + 1, dtype=np.int64, buffer=seg.buf,
                                offset=off)
            off = _align((self.n + 1) * 8)
            indices = np.ndarray(nnzb, dtype=np.int64, buffer=seg.buf,
                                 offset=off)
            off += _align(nnzb * 8)
            data = np.ndarray((nnzb, bs, bs), dtype=dtype,
                              buffer=seg.buf, offset=off)
            gather = rank_matvec_structs(indptr, indices, self.layout.plan,
                                         ranks)
            cache = {}
            for i, r in enumerate(ranks):
                flat, cols, seg_ids = gather.rank(i)
                # Contiguous private copy: the per-call gather of the
                # sequential leg (a.data[flat]), done once.
                cache[r] = (np.ascontiguousarray(data[flat]), cols,
                            seg_ids)
            state["cache"] = cache
            state["ws"] = {}      # shapes change with the pattern
            state["engine"] = ("compiled" if int(hdr[_H_MAT_ENGINE])
                               else "numpy")
            state["token"] = int(hdr[_H_MAT_TOKEN])
            del indptr, indices, data
        finally:
            seg.close()
