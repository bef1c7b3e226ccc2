"""The process-pool SPMD instrument: a pool must equal 'seq' bit for bit.

The sequential rank loop is the oracle (itself validated against the
global kernels in test_parallel_spmd.py); the worker pool runs the
*same* rank kernels over shared memory, so every payload is an exact
copy and equality is bitwise, not approximate — across dtypes,
including float32 ghost payloads.

Also covered: how the ``executor=`` knob resolves to a pool (and that
the solver has no pool executor), matrix rebroadcast, the
coordinator-side spans of a pool call, crash handling, and
shared-memory cleanup.
"""

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

from repro.core.config import SolverConfig
from repro.euler import wing_problem
from repro.parallel import (GhostExchange, ProcPool, ProcPoolError,
                            SPMDLayout, distributed_matvec,
                            distributed_residual)
from repro.parallel.spmd import rank_matvec
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
        f_proc = distributed_residual(prob.disc, layout, qq, executor=pool)
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
        y_proc = distributed_matvec(a, layout, x, executor=pool)
        assert y_proc.dtype == y_seq.dtype
        assert np.array_equal(y_seq, y_proc)

    def test_compiled_matvec_reads_blocks_in_place(self, setup, pool):
        """On the compiled tier the seq matvec reads each owned block in
        place through the plan's gather structure and the workers read
        their pre-gathered rows: the same block products in the same
        order, so seq == proc bitwise, and each rank's pre-gathered
        kernel gives the seq call's rows."""
        prob, _, layout, q = setup
        a = prob.disc.assemble_jacobian(q)
        a.engine = "compiled"
        rng = np.random.default_rng(11)
        x = rng.standard_normal(q.size)
        y = distributed_matvec(a, layout, x, executor="seq")
        assert np.array_equal(y, distributed_matvec(a, layout, x,
                                                    executor=pool))
        plan = layout.plan
        buf = plan.distribute(x, a.bs)
        for r in plan.receivers:
            plan.refresh_rank(buf, r)
        y = y.reshape(-1, a.bs)
        for rd in layout.ranks:
            flat, cols, seg = plan.gather(a).rank(rd.rank)
            assert np.array_equal(
                rank_matvec(a.data[flat], cols, seg, plan.local(buf, rd.rank),
                            rd.n_owned, engine="compiled"),
                y[rd.owned])

    def test_residual_matches_global_kernel(self, setup, pool):
        """proc == seq == the plain in-process first-order residual."""
        prob, _, layout, q = setup
        f_proc = distributed_residual(prob.disc, layout, q, executor=pool)
        assert np.array_equal(
            f_proc, prob.disc.residual(q, second_order=False))

    @pytest.mark.parametrize("engine", ["numpy", "compiled"])
    @pytest.mark.parametrize("flux_scheme", ["rusanov", "roe"])
    def test_compressible_residual_matches_global_kernel(self, flux_scheme,
                                                         engine):
        """The workers run the discretisation's own residual too: a
        2-worker pool and seq equal the global first-order residual
        bit for bit under either interface flux (Roe included)."""
        prob = wing_problem(9, 6, 5, compressible=True, second_order=False)
        prob.disc.flux_scheme = flux_scheme
        prob.disc.engine = engine        # the workers fork with it
        labels = kway_partition(prob.mesh.vertex_graph(), 4, seed=0)
        layout = SPMDLayout.build(prob.mesh.edges, labels)
        rng = np.random.default_rng(3)
        q = prob.initial.flat() + 0.01 * rng.standard_normal(
            prob.disc.num_unknowns)
        f_glob = prob.disc.residual(q, second_order=False)
        with ProcPool(layout, prob.disc, nworkers=2) as p:
            f_proc = distributed_residual(prob.disc, layout, q, executor=p)
        f_seq = distributed_residual(prob.disc, layout, q, executor="seq")
        assert np.array_equal(f_proc, f_glob)
        assert np.array_equal(f_seq, f_glob)

    @pytest.mark.parametrize("how", ["attached", "instance"])
    def test_pool_resolution(self, setup, pool, how):
        """A ProcPool instance is the executor itself, on the layout it
        was built over ("attached") or on an equal layout built apart
        from it ("instance")."""
        prob, labels, layout, q = setup
        a = prob.disc.assemble_jacobian(q)
        lay = layout if how == "attached" \
            else SPMDLayout.build(prob.mesh.edges, labels)
        assert np.array_equal(
            distributed_residual(prob.disc, lay, q, executor=pool),
            distributed_residual(prob.disc, lay, q, executor="seq"))
        assert np.array_equal(
            distributed_matvec(a, lay, q, executor=pool),
            distributed_matvec(a, lay, q, executor="seq"))

    @pytest.mark.parametrize("executor", ["proc", "mpi"],
                             ids=["no-pool", "unknown"])
    def test_bad_executor_rejected(self, setup, executor):
        prob, labels, _, q = setup
        bare = SPMDLayout.build(prob.mesh.edges, labels)
        a = prob.disc.assemble_jacobian(q)
        with pytest.raises(ValueError, match="unknown executor"):
            distributed_residual(prob.disc, bare, q, executor=executor)
        with pytest.raises(ValueError, match="unknown executor"):
            distributed_matvec(a, bare, q, executor=executor)

    def test_proc_string_rejected_beside_a_live_pool(self, setup, pool):
        """There is no attach point: ``executor="proc"`` is an error
        even on the layout a live pool was built over."""
        prob, _, layout, q = setup
        assert pool.layout is layout and not pool.closed
        a = prob.disc.assemble_jacobian(q)
        with pytest.raises(ValueError, match="'seq' or a ProcPool"):
            distributed_residual(prob.disc, layout, q, executor="proc")
        with pytest.raises(ValueError, match="'seq' or a ProcPool"):
            distributed_matvec(a, layout, q, executor="proc")


class TestMatrixRebroadcast:
    def test_updated_matrix_values_propagate(self, setup, pool):
        prob, _, layout, q = setup
        rng = np.random.default_rng(11)
        x = rng.standard_normal(q.size)
        a1 = prob.disc.assemble_jacobian(q)
        y1 = distributed_matvec(a1, layout, x, executor=pool)
        # New values, same pattern: the token must invalidate the
        # workers' cached gather copies.
        a2 = prob.disc.assemble_jacobian(
            q + 0.1 * rng.standard_normal(q.size))
        y2_seq = distributed_matvec(a2, layout, x, executor="seq")
        y2 = distributed_matvec(a2, layout, x, executor=pool)
        assert np.array_equal(y2, y2_seq)
        assert not np.array_equal(y1, y2)
        # Rebroadcasting the same object is a no-op (cached by token).
        assert np.array_equal(
            distributed_matvec(a2, layout, x, executor=pool), y2_seq)


class TestPoolCallSpans:
    def test_one_coordinator_span_per_call(self, setup, pool):
        """A recorder passed with a pool books each call as one span on
        the coordinator (rank 0), with the pool's ghost traffic on the
        counters: the workers keep no clock, and nothing is silent."""
        prob, _, layout, q = setup
        rec = TraceRecorder()
        a = prob.disc.assemble_jacobian(q)
        for _ in range(2):
            distributed_residual(prob.disc, layout, q, recorder=rec,
                                 executor=pool)
        distributed_matvec(a, layout, q, recorder=rec, executor=pool)
        assert rec.phase_calls("flux") == rec.phase_calls("flux", 0) == 2
        assert rec.phase_calls("matvec") == rec.phase_calls("matvec", 0) == 1
        assert rec.phase_seconds("flux") > 0
        assert rec.phase_seconds("matvec") > 0
        assert rec.ranks() == [0]
        assert rec.counter("messages") == 3 * layout.plan.pair_count

    def test_a_pool_residual_books_the_plan_traffic(self, setup, pool):
        """A pool residual books the messages and bytes of one refresh
        on the recorder, per receiving rank as the seq executor does,
        and no span but its own."""
        prob, _, layout, q = setup
        plan, ncomp = layout.plan, prob.disc.ncomp
        rec, seq = TraceRecorder(), TraceRecorder()
        distributed_residual(prob.disc, layout, q, recorder=rec,
                             executor=pool)
        distributed_residual(prob.disc, layout, q, recorder=seq)
        assert rec.counter("messages") == plan.pair_count
        assert rec.counter("bytes") == plan.ghost_rows * ncomp * 8
        for r in range(layout.nranks):
            for name in ("messages", "bytes"):
                assert rec.counter(name, r) == seq.counter(name, r)
        assert rec.phases() == ["flux"]


class TestExchangeProcMode:
    def test_account_refresh_counts_plan_traffic(self, setup):
        prob, _, layout, _ = setup
        rec = TraceRecorder()
        ex = GhostExchange(layout, prob.disc.ncomp, recorder=rec)
        ex.account_refresh(8)
        assert rec.counter("messages") == ex.pair_count
        assert rec.counter("bytes") == ex.ghost_rows * prob.disc.ncomp * 8
        assert rec.phases() == []
        # Booked traffic equals what the seq refresh actually moves.
        rec2 = TraceRecorder()
        ex2 = GhostExchange(layout, prob.disc.ncomp, recorder=rec2)
        ex2.refresh(np.zeros((layout.plan.total_rows, prob.disc.ncomp)))
        for name in ("messages", "bytes"):
            assert rec2.counter(name) == rec.counter(name)


class TestLifecycle:
    def test_shm_unlinked_on_context_exit(self, setup):
        prob, _labels, layout, q = setup
        with ProcPool(layout, prob.disc, nworkers=2) as p:
            name = p.shm_name
            distributed_residual(prob.disc, layout, q, executor=p)
            a = prob.disc.assemble_jacobian(q)
            distributed_matvec(a, layout, q, executor=p)
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
        with pytest.raises(ProcPoolError, match="closed"):
            # A closed pool passed as the executor is rejected, not a
            # deadlock waiting on workers that have exited.
            distributed_residual(prob.disc, layout, q, executor=p)

    def test_worker_crash_raises_and_close_is_clean(self, setup):
        prob, _labels, layout, q = setup
        p = ProcPool(layout, prob.disc, nworkers=2, timeout=2.0)
        name = p.shm_name
        victim = p._procs[0]
        victim.terminate()
        victim.join()
        with pytest.raises(ProcPoolError, match="spmd-worker-0"):
            p.residual(q)
        with pytest.raises(ProcPoolError, match="broken"):
            p.residual(q)              # the pool stays out of service
        p.close()                      # must not hang or raise
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        # The layout is reusable afterwards with a fresh pool.
        with ProcPool(layout, prob.disc, nworkers=2) as fresh:
            f = distributed_residual(prob.disc, layout, q, executor=fresh)
        assert np.array_equal(
            f, distributed_residual(prob.disc, layout, q, executor="seq"))


class TestNoSolverExecutor:
    """The pool is an instrument, not a solver executor: the solver
    config has no ``"proc"`` value and no worker count."""

    def test_proc_executor_rejected(self):
        with pytest.raises(ValueError, match="'local' or 'seq'"):
            SolverConfig(executor="proc")

    def test_nworkers_field_is_gone(self):
        with pytest.raises(TypeError):
            SolverConfig(nworkers=2)


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
