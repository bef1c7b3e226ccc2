"""The ΨNKS application driver — PETSc-FUN3D's solve loop, reimplemented.

Each pseudo-timestep:

1. evaluate the (second-order) nonlinear residual and update the SER
   CFL controller;
2. (re)assemble the first-order Jacobian, add the pseudo-timestep
   diagonal, refactor the Schwarz/ILU preconditioner — every
   ``jacobian_lag`` steps;
3. solve the Newton correction with right-preconditioned GMRES to the
   loose forcing tolerance (matrix-free operator optional);
4. update the state (full step; PTC provides the globalisation).

Wall time per phase is the recorder's job (``recorder=``, see
:class:`NKSSolver`); the report carries only the convergence history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SolverConfig
from repro.euler.discretization import EdgeFVDiscretization
from repro.parallel.spmd import (SPMDLayout, distributed_matvec,
                                 distributed_residual)
from repro.partition.bisect import pmetis_partition
from repro.partition.kway import kway_partition
from repro.precond.asm import AdditiveSchwarz, ASMConfig
from repro.solvers.gmres import gmres
from repro.solvers.krylov_base import (OperatorFromCallable,
                                       OperatorFromMatrix)
from repro.solvers.ptc import SERController
from repro.solvers.workspace import KrylovWorkspace
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["NKSSolver", "SolveReport", "StepRecord"]


class _SPMDOperator(OperatorFromCallable):
    """Krylov operator applying the Jacobian via the SPMD matvec.

    What the executor knob routes GMRES through: the distributed
    rank-by-rank SpMV (sequential or process-pool backend) instead of
    the in-process ``A @ x``.  Both backends are bitwise-identical to
    each other, so 'seq' is the oracle for 'proc' at the solver level.
    """

    def __init__(self, matrix, layout: SPMDLayout, executor,
                 recorder=NULL_RECORDER) -> None:
        super().__init__(self._apply, matrix.shape[0])
        self.matrix = matrix
        self.layout = layout
        self.executor = executor
        self.recorder = recorder

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return distributed_matvec(self.matrix, self.layout, x,
                                  executor=self.executor,
                                  recorder=self.recorder)


def _booked_as_flux(matvec, recorder=NULL_RECORDER):
    """The matrix-free ``J v`` with each application a ``flux`` span.

    Every finite-difference ``J v`` is one nonlinear residual
    evaluation.  GMRES applies it inside the driver's ``krylov``
    envelope, so the nested span moves that time out of ``krylov``
    self time and into ``flux``, where the residual belongs.
    """
    def apply(x: np.ndarray) -> np.ndarray:
        with recorder.span("flux"):
            return matvec(x)
    return apply


@dataclass
class StepRecord:
    """One pseudo-timestep's bookkeeping."""

    step: int
    fnorm: float
    cfl: float
    linear_iterations: int
    gmres_converged: bool


@dataclass
class SolveReport:
    """Full solve history."""

    converged: bool
    steps: list[StepRecord] = field(default_factory=list)
    final_state: np.ndarray | None = None
    fnorm0: float = 0.0

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def total_linear_iterations(self) -> int:
        return sum(s.linear_iterations for s in self.steps)

    @property
    def residual_history(self) -> np.ndarray:
        return np.array([s.fnorm for s in self.steps])

    @property
    def cfl_history(self) -> np.ndarray:
        return np.array([s.cfl for s in self.steps])

    @property
    def final_reduction(self) -> float:
        if not self.steps or self.fnorm0 == 0:
            return 1.0
        return self.steps[-1].fnorm / self.fnorm0


class NKSSolver:
    """Pseudo-transient Newton-Krylov-Schwarz driver.

    ``recorder`` (a :class:`repro.telemetry.TraceRecorder`) threads
    telemetry through the whole stack: the driver records ``flux``
    (the matrix-free operator's residual evaluations included),
    ``jacobian``, and ``krylov`` envelope spans; the preconditioner
    records ``precond_setup`` / ``trisolve``; GMRES records
    ``orthogonalization`` and the iteration counters.  The default is
    a shared no-op recorder, so uninstrumented solves pay nothing and
    an instrumented solve is bitwise-identical — telemetry only reads
    the clock, never the arrays.

    Warm injection (the solver-service seam): ``labels`` skips the
    partitioner, ``layout`` additionally skips the SPMD layout build
    (and brings its gather cache and any attached worker pool along),
    and ``preconditioner`` injects a previously-harvested
    :class:`AdditiveSchwarz` whose refresh path reuses the symbolic
    ILU (and, on the numpy tier, its schedules) numeric-only.  All
    three must come from a solve over the same mesh topology and
    compatible config — the structures assert sparsity compatibility
    at use time.
    """

    def __init__(self, disc: EdgeFVDiscretization,
                 config: SolverConfig | None = None,
                 recorder=NULL_RECORDER, *,
                 labels: np.ndarray | None = None,
                 layout: SPMDLayout | None = None,
                 preconditioner: AdditiveSchwarz | None = None) -> None:
        self.disc = disc
        self.config = config or SolverConfig()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        # The engine knob rides the discretisation so the residual,
        # assembly and SPMD rank kernels (which fork after this point)
        # all see the same tier.
        self.disc.engine = self.config.engine
        if layout is not None:
            self._labels = np.asarray(layout.labels, dtype=np.int64)
        elif labels is not None:
            self._labels = np.asarray(labels, dtype=np.int64)
        else:
            self._labels = self._build_labels()
        self._pc: AdditiveSchwarz | None = preconditioner
        if preconditioner is not None:
            # Per-request telemetry: the harvested instance records
            # into this solve's recorder, not the one it was born with.
            preconditioner.recorder = self.recorder
        self._ws = KrylovWorkspace()     # Krylov arrays, reused every step
        self._steps_since_refresh = 0
        # SPMD execution (config.executor 'seq'/'proc'): the Krylov
        # matvec — and the residual while it is first-order — run on
        # the distributed rank-local kernels over the partition.
        if self.config.executor == "local":
            self._layout = None
        elif layout is not None:
            self._layout = layout
        else:
            self._layout = SPMDLayout.build(disc.mesh.edges, self._labels)

    # ------------------------------------------------------------------
    def _build_labels(self) -> np.ndarray:
        cfg = self.config.precond
        n = self.disc.mesh.num_vertices
        if cfg.nparts <= 1:
            return np.zeros(n, dtype=np.int64)
        graph = self.disc.mesh.vertex_graph()
        if cfg.partitioner == "kway":
            return kway_partition(graph, cfg.nparts, seed=self.config.seed)
        if cfg.partitioner == "pmetis":
            return pmetis_partition(graph, cfg.nparts, seed=self.config.seed)
        if cfg.partitioner == "given":
            if cfg.labels is None:
                raise ValueError("partitioner 'given' requires labels")
            return np.asarray(cfg.labels, dtype=np.int64)
        raise ValueError(f"unknown partitioner {cfg.partitioner!r}")

    @property
    def partition_labels(self) -> np.ndarray:
        return self._labels

    def _make_pc(self) -> AdditiveSchwarz:
        cfg = self.config.precond
        return AdditiveSchwarz(
            self._labels,
            ASMConfig(overlap=cfg.overlap, fill_level=cfg.fill_level,
                      variant=cfg.variant,
                      storage_dtype=self.config.policy.precond_dtype,
                      engine=self.config.engine),
            graph=self.disc.mesh.vertex_graph(),
            recorder=self.recorder,
        )

    # ------------------------------------------------------------------
    def solve(self, q0: np.ndarray, *, verbose: bool = False,
              monitor=None) -> SolveReport:
        """Run pseudo-timesteps until ``target_reduction`` or ``max_steps``.

        ``monitor(record, state)`` is called after every step with the
        fresh :class:`StepRecord` and the current state vector (PETSc's
        SNES monitor idiom); raise :class:`StopIteration` from it to
        end the solve early (the report is returned unconverged).
        """
        cfg = self.config
        rec = self.recorder
        q = np.array(q0, dtype=np.float64).ravel().copy()
        controller = SERController(cfg.ptc, recorder=rec)
        report = SolveReport(converged=False)
        self._steps_since_refresh = cfg.jacobian_lag  # force initial refresh

        pool = None
        own_pool = False
        if cfg.executor == "proc":
            # Reuse a live pool already attached to the layout (the
            # warm-service case: persistent workers across requests);
            # otherwise create one for this solve only.  Only pools
            # created here are closed here.
            attached = self._layout.pool
            if (attached is not None and not attached.closed
                    and not attached.broken):
                pool = attached
            else:
                from repro.parallel.procpool import ProcPool
                pool = ProcPool(self._layout, self.disc,
                                nworkers=cfg.nworkers)
                own_pool = True
        spmd_exec = pool if pool is not None \
            else ("seq" if cfg.executor == "seq" else None)
        try:
            report = self._solve_loop(q, controller, report, cfg, rec,
                                      spmd_exec, verbose, monitor)
            if pool is not None:
                # Merge the workers' telemetry shards (the phase spans
                # they clocked in their own processes) into ``rec``.
                pool.collect(rec)
        finally:
            if pool is not None and own_pool:
                pool.close()
        return report

    def _solve_loop(self, q, controller, report, cfg, rec, spmd_exec,
                    verbose, monitor) -> SolveReport:
        for step in range(1, cfg.max_steps + 1):
            # With order switching active, the controller dictates the
            # discretisation order for this step (paper Sec. 2.4.1:
            # first-order until the shock position settles).
            order = (controller.second_order
                     if cfg.ptc.switch_order_drop is not None else None)
            use2 = self.disc.second_order if order is None else order
            if spmd_exec is not None and not use2:
                # First-order residuals decompose exactly over the
                # partition (the SPMD kernels are first-order), so
                # they run on the configured backend bitwise-
                # identically to the in-process evaluation.  Per-rank
                # flux spans and wait accounting come from the
                # distributed path itself (inside the workers for
                # 'proc', merged when the pool is collected).
                f = distributed_residual(self.disc, self._layout, q,
                                         executor=spmd_exec,
                                         recorder=rec)
            else:
                with rec.span("flux"):
                    f = self.disc.residual(q, second_order=order)
            fnorm = float(np.linalg.norm(f))
            if step == 1:
                report.fnorm0 = fnorm
            cfl = controller.update(fnorm)

            if fnorm <= max(cfg.target_reduction * report.fnorm0,
                            cfg.absolute_tol):
                report.steps.append(StepRecord(step=step, fnorm=fnorm,
                                               cfl=cfl, linear_iterations=0,
                                               gmres_converged=True))
                report.converged = True
                break

            # --- Jacobian + preconditioner refresh ---------------------
            if self._steps_since_refresh >= cfg.jacobian_lag or self._pc is None:
                with rec.span("jacobian"):
                    jac = self.disc.shifted_jacobian(q, cfl)
                # Keep the preconditioner instance across refreshes: the
                # Jacobian sparsity is fixed, so setup() reuses the
                # subdomains' symbolic ILU patterns.
                if self._pc is None:
                    self._pc = self._make_pc()
                self._pc.setup(jac)
                self._jac = jac
                self._steps_since_refresh = 0
            self._steps_since_refresh += 1

            # --- linear solve -------------------------------------------
            if cfg.matrix_free:
                shift = self.disc.timestep_shift(q, cfl)
                # Building the operator costs its base residual.
                with rec.span("flux"):
                    fd = self.disc.jacobian_operator(q, shift=shift,
                                                     second_order=order)
                op = OperatorFromCallable(_booked_as_flux(fd.matvec, rec),
                                          fd.shape[0])
            elif spmd_exec is not None:
                op = _SPMDOperator(self._jac, self._layout, spmd_exec,
                                   recorder=rec)
            else:
                op = OperatorFromMatrix(self._jac)
            # The Krylov basis works at the policy's storage precision:
            # the workspace follows the rhs dtype, so casting the rhs is
            # the whole wiring.  The Newton update re-widens to fp64 on
            # application (q is float64), keeping the outer loop double.
            rhs = -f
            if cfg.policy.krylov_dtype != np.float64:
                rhs = rhs.astype(cfg.policy.krylov_dtype)
            with rec.span("krylov"):
                res = gmres(op, rhs, M=self._pc,
                            rtol=cfg.krylov.rtol,
                            restart=cfg.krylov.restart,
                            maxiter=cfg.krylov.max_iterations,
                            orthog=cfg.krylov.orthogonalization,
                            workspace=self._ws,
                            recorder=rec)
            rec.count("newton_steps", 1)

            q += res.x
            record = StepRecord(
                step=step, fnorm=fnorm, cfl=cfl,
                linear_iterations=res.iterations,
                gmres_converged=res.converged)
            report.steps.append(record)
            if verbose:
                print(f"step {step:3d}  |F|={fnorm:.3e}  CFL={cfl:9.1f}  "
                      f"lin_its={res.iterations}")
            if monitor is not None:
                try:
                    monitor(record, q)
                except StopIteration:
                    break

        report.final_state = q
        return report
