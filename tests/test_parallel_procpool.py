"""The process-pool SPMD backend: 'proc' must equal 'seq' bit for bit.

The sequential rank loop is the oracle (itself validated against the
global kernels in test_parallel_spmd.py); the worker pool runs the
*same* rank kernels over shared memory, so every payload is an exact
copy and equality is bitwise, not approximate — across dtypes,
including float32 ghost payloads.

Also covered: how the ``executor=`` knob resolves to a pool, matrix
rebroadcast, worker-side telemetry shards, crash handling, and
shared-memory cleanup.
"""

import multiprocessing as mp
import os
import pathlib
import signal
import subprocess
import sys
import time
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PreconditionerConfig, SolverConfig
from repro.core.driver import NKSSolver
from repro.euler import wing_problem
from repro.parallel import (GhostExchange, ProcPool, ProcPoolError,
                            SPMDLayout, distributed_matvec,
                            distributed_residual)
from repro.partition import kway_partition
from repro.telemetry import TraceRecorder

_REPO_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)


@pytest.fixture(scope="module")
def setup():
    prob = wing_problem(9, 7, 5)
    labels = kway_partition(prob.mesh.vertex_graph(), 6, seed=0)
    layout = SPMDLayout.build(prob.mesh.edges, labels)
    rng = np.random.default_rng(0)
    q = prob.initial.flat() + 0.05 * rng.standard_normal(
        prob.disc.num_unknowns)
    return prob, labels, layout, q


@pytest.fixture(scope="module")
def pool(setup):
    prob, _labels, layout, _q = setup
    # 3 workers over 6 ranks: uneven round-robin mapping on purpose.
    with ProcPool(layout, prob.disc, nworkers=3) as p:
        yield p


class TestBitwiseEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000), f32=st.booleans())
    def test_residual(self, setup, pool, seed, f32):
        prob, _, layout, q = setup
        rng = np.random.default_rng(seed)
        qq = q + 0.01 * rng.standard_normal(q.size)
        if f32:
            qq = qq.astype(np.float32)
        f_seq = distributed_residual(prob.disc, layout, qq, executor="seq")
        f_proc = distributed_residual(prob.disc, layout, qq,
                                      executor="proc")
        assert f_proc.dtype == f_seq.dtype == qq.dtype
        assert np.array_equal(f_seq, f_proc)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000), f32=st.booleans())
    def test_matvec(self, setup, pool, seed, f32):
        prob, _, layout, q = setup
        a = prob.disc.assemble_jacobian(q)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(q.size)
        if f32:
            x = x.astype(np.float32)
        y_seq = distributed_matvec(a, layout, x, executor="seq")
        y_proc = distributed_matvec(a, layout, x, executor="proc")
        assert y_proc.dtype == y_seq.dtype
        assert np.array_equal(y_seq, y_proc)

    def test_residual_matches_global_kernel(self, setup, pool):
        """proc == seq == the plain in-process first-order residual."""
        prob, _, layout, q = setup
        f_proc = distributed_residual(prob.disc, layout, q,
                                      executor="proc")
        assert np.array_equal(
            f_proc, prob.disc.residual(q, second_order=False))

    @pytest.mark.parametrize("how", ["attached", "instance"])
    def test_pool_resolution(self, setup, pool, how):
        """``executor="proc"`` resolves through ``layout.pool``; a
        ProcPool instance is the executor itself, attached or not."""
        prob, labels, layout, q = setup
        a = prob.disc.assemble_jacobian(q)
        if how == "attached":
            assert layout.pool is pool
            lay, executor = layout, "proc"
        else:
            lay = SPMDLayout.build(prob.mesh.edges, labels)
            assert lay.pool is None
            executor = pool
        assert np.array_equal(
            distributed_residual(prob.disc, lay, q, executor=executor),
            distributed_residual(prob.disc, lay, q, executor="seq"))
        assert np.array_equal(
            distributed_matvec(a, lay, q, executor=executor),
            distributed_matvec(a, lay, q, executor="seq"))

    @pytest.mark.parametrize("executor, match", [
        ("proc", "needs a worker pool"),
        ("mpi", "unknown executor"),
    ], ids=["no-pool", "unknown"])
    def test_bad_executor_rejected(self, setup, executor, match):
        prob, labels, _, q = setup
        bare = SPMDLayout.build(prob.mesh.edges, labels)   # no pool
        a = prob.disc.assemble_jacobian(q)
        with pytest.raises(ValueError, match=match):
            distributed_residual(prob.disc, bare, q, executor=executor)
        with pytest.raises(ValueError, match=match):
            distributed_matvec(a, bare, q, executor=executor)


class TestMatrixRebroadcast:
    def test_updated_matrix_values_propagate(self, setup, pool):
        prob, _, layout, q = setup
        rng = np.random.default_rng(11)
        x = rng.standard_normal(q.size)
        a1 = prob.disc.assemble_jacobian(q)
        y1 = distributed_matvec(a1, layout, x, executor="proc")
        # New values, same pattern: the token must invalidate the
        # workers' cached gather copies.
        a2 = prob.disc.assemble_jacobian(
            q + 0.1 * rng.standard_normal(q.size))
        y2_seq = distributed_matvec(a2, layout, x, executor="seq")
        y2 = distributed_matvec(a2, layout, x, executor="proc")
        assert np.array_equal(y2, y2_seq)
        assert not np.array_equal(y1, y2)
        # Rebroadcasting the same object is a no-op (cached by token).
        assert np.array_equal(
            distributed_matvec(a2, layout, x, executor="proc"), y2_seq)


class TestWorkerTelemetry:
    def test_spans_recorded_inside_workers(self, setup):
        prob, labels, layout, q = setup
        with ProcPool(layout, prob.disc, nworkers=3) as p:
            rec = TraceRecorder()
            distributed_residual(prob.disc, layout, q, recorder=rec,
                                 executor="proc")
            a = prob.disc.assemble_jacobian(q)
            distributed_matvec(a, layout, q, recorder=rec,
                               executor="proc")
            # Parent-side envelopes exist already; worker shards only
            # arrive on collect().
            assert rec.phase_calls("flux", rank=1) == 0
            p.collect(rec)
            # One per-rank flux/matvec span, clocked inside the worker.
            for rd in layout.ranks:
                assert rec.phase_calls("flux", rank=rd.rank) == 1
                assert rec.phase_calls("matvec", rank=rd.rank) == 1
                assert rec.phase_calls("ghost_exchange",
                                       rank=rd.rank) == 2
            # Implicit-sync waits: the slowest rank waits zero, the
            # others wait the measured gap — all finite, at least one
            # recorded per phase.
            assert rec.wait_seconds("flux") >= 0.0
            # Worker-side ghost traffic counters match the plan: one
            # recorded exchange per op (residual + matvec).
            ex = GhostExchange(layout, prob.disc.ncomp)
            assert rec.counter("messages") == 2 * ex.pair_count
            assert rec.counter("bytes") == 2 * ex.ghost_rows * \
                prob.disc.ncomp * 8
            # collect() resets the shards: a second collect adds nothing.
            before = rec.phase_calls("flux", rank=0)
            p.collect(rec)
            assert rec.phase_calls("flux", rank=0) == before

    def test_null_recorder_records_nothing(self, setup):
        prob, _, layout, q = setup
        with ProcPool(layout, prob.disc, nworkers=2) as p:
            distributed_residual(prob.disc, layout, q, executor="proc")
            rec = TraceRecorder()
            p.collect(rec)
            assert rec.phases() == []


class TestExchangeProcMode:
    def test_account_refresh_counts_plan_traffic(self, setup):
        prob, _, layout, _ = setup
        ex = GhostExchange(layout, prob.disc.ncomp)
        ex.account_refresh(8)
        assert ex.messages == ex.pair_count
        assert ex.bytes_moved == ex.ghost_rows * prob.disc.ncomp * 8
        # Booked traffic equals what the seq refresh actually moves.
        ex2 = GhostExchange(layout, prob.disc.ncomp)
        local = [np.zeros((rd.n_local, prob.disc.ncomp))
                 for rd in layout.ranks]
        ex2.refresh(local)
        assert (ex2.messages, ex2.bytes_moved) == \
            (ex.messages, ex.bytes_moved)


class TestLifecycle:
    def test_shm_unlinked_on_context_exit(self, setup):
        prob, _labels, layout, q = setup
        with ProcPool(layout, prob.disc, nworkers=2) as p:
            name = p.shm_name
            distributed_residual(prob.disc, layout, q, executor="proc")
            a = prob.disc.assemble_jacobian(q)
            distributed_matvec(a, layout, q, executor="proc")
            mat_name = p.mat_shm_name
            assert mat_name is not None
        assert p.closed
        for seg_name in (name, mat_name):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=seg_name)

    def test_ops_raise_after_close(self, setup):
        prob, _labels, layout, q = setup
        p = ProcPool(layout, prob.disc, nworkers=2)
        p.close()
        p.close()                      # idempotent
        with pytest.raises(ProcPoolError, match="closed"):
            p.residual(q)
        with pytest.raises(ValueError):
            # layout.pool was detached by close(): executor="proc"
            # without a live pool must be rejected, not deadlock.
            distributed_residual(prob.disc, layout, q, executor="proc")

    def test_worker_crash_raises_and_close_is_clean(self, setup):
        prob, _labels, layout, q = setup
        p = ProcPool(layout, prob.disc, nworkers=2, timeout=2.0)
        name = p.shm_name
        victim = p._procs[0]
        victim.terminate()
        victim.join()
        with pytest.raises(ProcPoolError, match="spmd-worker-0"):
            p.residual(q)
        assert p.broken
        p.close()                      # must not hang or raise
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        # The layout is reusable afterwards with a fresh pool.
        with ProcPool(layout, prob.disc, nworkers=2):
            f = distributed_residual(prob.disc, layout, q,
                                     executor="proc")
        assert np.array_equal(
            f, distributed_residual(prob.disc, layout, q, executor="seq"))


class TestDriverIntegration:
    def test_solver_proc_bitwise_equals_seq(self):
        prob = wing_problem(8, 6, 5)
        q0 = prob.initial.flat()

        def run(executor, nworkers=None):
            cfg = SolverConfig(max_steps=3,
                               precond=PreconditionerConfig(nparts=4),
                               executor=executor, nworkers=nworkers)
            return NKSSolver(prob.disc, cfg).solve(q0)

        r_seq = run("seq")
        r_proc = run("proc", nworkers=2)
        assert np.array_equal(r_seq.final_state, r_proc.final_state)
        assert ([s.fnorm for s in r_seq.steps]
                == [s.fnorm for s in r_proc.steps])
        assert (r_seq.total_linear_iterations
                == r_proc.total_linear_iterations)

    def test_solver_recorder_gets_worker_spans(self):
        """An instrumented proc-executor solve surfaces the phase spans
        clocked inside the worker processes, per rank."""
        prob = wing_problem(8, 6, 5)
        rec = TraceRecorder()
        cfg = SolverConfig(max_steps=3,
                           precond=PreconditionerConfig(nparts=4),
                           executor="proc", nworkers=2)
        NKSSolver(prob.disc, cfg, recorder=rec).solve(prob.initial.flat())
        # The Krylov matvecs and their ghost exchanges run in the pool
        # (the second-order residual stays in-process), so their spans
        # carry every SPMD rank, clocked by the owning worker.
        for phase in ("matvec", "ghost_exchange"):
            assert rec.phase_seconds(phase) > 0.0
            assert rec.ranks(phase) == [0, 1, 2, 3]


class TestEdgeCases:
    """Worker counts at and past the host's limits must either work
    (oversubscription: the OS time-slices) or raise a clear
    ProcPoolError — never silently misbehave."""

    def test_nworkers_zero_raises(self, setup):
        prob, _, layout, q = setup
        with pytest.raises(ProcPoolError, match="nworkers"):
            ProcPool(layout, prob.disc, nworkers=0)

    def test_threads_keyword_is_gone(self, setup):
        """The intra-rank thread-team axis was deleted (PR 20): asking
        for it fails loudly instead of running single-threaded."""
        prob, _, layout, q = setup
        with pytest.raises(TypeError):
            ProcPool(layout, prob.disc, threads=2)

    def test_nworkers_beyond_cpu_count(self, setup):
        """Oversubscription past os.cpu_count() works and stays exact."""
        prob, _, layout, q = setup
        n = min((os.cpu_count() or 1) + 2, layout.nranks)
        with ProcPool(layout, prob.disc, nworkers=n) as pool:
            assert pool.nworkers == n
            f = pool.residual(q)
        assert np.array_equal(
            f, distributed_residual(prob.disc, layout, q, executor="seq"))

    def test_nworkers_beyond_nranks_clamps(self, setup):
        """More workers than ranks would idle; the pool clamps (the
        documented behaviour) and every worker owns >= 1 rank."""
        prob, _, layout, q = setup
        with ProcPool(layout, prob.disc,
                      nworkers=layout.nranks + 5) as pool:
            assert pool.nworkers == layout.nranks
            assert all(len(r) >= 1 for r in pool._worker_ranks)
            f = pool.residual(q)
        assert np.array_equal(
            f, distributed_residual(prob.disc, layout, q, executor="seq"))


_KILL_SCRIPT = r"""
import sys
import numpy as np
from repro.euler import wing_problem
from repro.parallel import ProcPool, SPMDLayout
from repro.partition import kway_partition

mode = sys.argv[1]
prob = wing_problem(9, 7, 5)
labels = kway_partition(prob.mesh.vertex_graph(), 4, seed=0)
layout = SPMDLayout.build(prob.mesh.edges, labels)
pool = ProcPool(layout, prob.disc, nworkers=2)
q = prob.initial.flat()
jac = prob.disc.shifted_jacobian(q, cfl=40.0)
pool.matvec(jac, q)                       # loads the matrix segment
print("SEG", pool.shm_name, pool.mat_shm_name, flush=True)
if mode == "raise":
    pool.residual(q)
    raise RuntimeError("coordinator blew up mid-solve")
elif mode == "spin":
    print("READY", flush=True)
    while True:
        pool.residual(q)
"""


class TestLifecycleCrashPaths:
    """close() is the happy path; the finalize guard must also unlink
    segments when the coordinator dies mid-solve (exception, SIGINT)."""

    @staticmethod
    def _segments_of(proc_stdout: str) -> list[str]:
        for line in proc_stdout.splitlines():
            if line.startswith("SEG "):
                return [s for s in line.split()[1:] if s != "None"]
        raise AssertionError(f"no SEG line in output:\n{proc_stdout}")

    def test_coordinator_exception_leaves_no_segments(self, tmp_path):
        script = tmp_path / "crash.py"
        script.write_text(_KILL_SCRIPT)
        proc = subprocess.run(
            [sys.executable, str(script), "raise"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(_REPO_ROOT, "src")},
            cwd=_REPO_ROOT)
        assert proc.returncode != 0
        assert "coordinator blew up" in proc.stderr
        for name in self._segments_of(proc.stdout):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_sigint_mid_solve_leaves_no_segments(self, tmp_path):
        script = tmp_path / "spin.py"
        script.write_text(_KILL_SCRIPT)
        proc = subprocess.Popen(
            [sys.executable, str(script), "spin"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(_REPO_ROOT, "src")},
            cwd=_REPO_ROOT)
        try:
            lines = []
            for _ in range(10):
                line = proc.stdout.readline()
                lines.append(line)
                if line.startswith("READY"):
                    break
            assert any(ln.startswith("READY") for ln in lines)
            time.sleep(0.2)               # land the signal mid-solve
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode != 0
        for name in self._segments_of("".join(lines)):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_finalizer_idempotent_after_close(self, setup):
        prob, _, layout, q = setup
        pool = ProcPool(layout, prob.disc, nworkers=2)
        name = pool.shm_name
        pool.close()
        pool.close()                       # idempotent
        pool._finalizer()                  # already spent: no-op
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_matrix_segments_tracked_for_cleanup(self, setup):
        """Every live segment (arena + current matrix) is registered
        with the crash-path guard; replaced matrices are deregistered."""
        prob, _, layout, q = setup
        a = prob.disc.assemble_jacobian(q)
        x = np.random.default_rng(10).standard_normal(q.size)
        with ProcPool(layout, prob.disc, nworkers=2) as pool:
            assert len(pool._cleanup_state["segs"]) == 1
            pool.matvec(a, x)
            assert len(pool._cleanup_state["segs"]) == 2
            a2 = a.copy()
            a2.data *= 2.0
            pool.matvec(a2, x)             # rebroadcast replaces segment
            assert len(pool._cleanup_state["segs"]) == 2
