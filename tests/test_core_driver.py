"""Integration tests: the full ΨNKS solve loop."""

import time

import numpy as np
import pytest

from repro.core import NKSSolver, SolverConfig
from repro.core.config import KrylovConfig, PreconditionerConfig
from repro.euler import duct_problem, wing_problem
from repro.solvers.ptc import PTCConfig
from repro.telemetry import TraceRecorder


@pytest.fixture(scope="module")
def wing():
    return wing_problem(7, 5, 4)


def _solve(prob, recorder=None, **kw):
    defaults = dict(ptc=PTCConfig(cfl0=10.0), max_steps=30,
                    target_reduction=1e-6, matrix_free=True)
    defaults.update(kw)
    cfg = SolverConfig(**defaults)
    return NKSSolver(prob.disc, cfg, recorder=recorder) \
        .solve(prob.initial.flat())


class TestConvergence:
    def test_incompressible_wing_converges(self, wing):
        rep = _solve(wing)
        assert rep.converged
        assert rep.final_reduction <= 1e-6
        assert rep.num_steps < 25

    def test_compressible_wing_converges(self):
        prob = wing_problem(6, 4, 4, compressible=True, mach=0.4)
        rep = _solve(prob, ptc=PTCConfig(cfl0=5.0), target_reduction=1e-5,
                     max_steps=40)
        assert rep.converged

    def test_duct_trivially_converged(self):
        prob = duct_problem(4)
        rep = _solve(prob)
        # Freestream is the exact solution: one step, zero work.
        assert rep.converged
        assert rep.num_steps == 1
        assert rep.total_linear_iterations == 0

    def test_converged_state_has_zero_residual(self, wing):
        """The (default, compiled) solve's state, re-evaluated on the
        oracle tier: the solver cannot pass by agreeing with itself."""
        rep = _solve(wing, target_reduction=1e-8)
        wing.disc.engine = "numpy"
        r = wing.disc.residual(rep.final_state)
        assert np.linalg.norm(r) <= 1e-8 * rep.fnorm0 * 1.01

    def test_assembled_operator_mode(self, wing):
        """Defect-correction mode (assembled 1st-order J for the
        operator) converges too, just more slowly per step."""
        rep = _solve(wing, matrix_free=False, max_steps=60,
                     target_reduction=1e-5)
        assert rep.converged

    def test_wall_produces_lift_like_pressure(self, wing):
        """Physical sanity: after convergence the wall pressure differs
        from freestream (the wing patch disturbs the flow)."""
        rep = _solve(wing)
        q = rep.final_state.reshape(-1, 4)
        bc = wing.disc.bc
        wall_p = q[bc.vertices[bc.wall_mask], 0]
        assert np.abs(wall_p).max() > 1e-3


class TestDiagnostics:
    def test_residual_history_monotone_ish(self, wing):
        rep = _solve(wing)
        r = rep.residual_history
        # PTC allows transient bumps; demand overall decrease and no
        # more than one local increase.
        assert r[-1] < r[0]
        assert int((np.diff(r) > 0).sum()) <= 1

    def test_cfl_history_grows(self, wing):
        rep = _solve(wing)
        cfl = rep.cfl_history
        assert cfl[0] == pytest.approx(10.0)
        assert cfl[-1] > cfl[0]

    def test_phase_times_recorded(self, wing):
        rec = TraceRecorder()
        _solve(wing, recorder=rec)
        assert rec.phase_seconds("flux") > 0
        assert rec.phase_seconds("krylov") > 0
        assert rec.phase_calls("precond_setup") > 0

    def test_matrix_free_residuals_booked_as_flux(self):
        """Every FD ``J v`` is a residual evaluation: the recorder's
        ``flux`` must cover the time spent inside ``disc.residual``
        (the operator build's base residual included), and ``krylov``
        self time must not (it used to hold all of it)."""
        prob = wing_problem(9, 6, 5)
        disc = prob.disc
        inner = disc.residual
        rec = TraceRecorder()
        spent = [0.0]
        in_krylov = [0.0]       # the share spent under krylov > flux

        def timed_residual(*args, **kw):
            nested = rec.depth >= 2
            t0 = time.perf_counter()
            try:
                return inner(*args, **kw)
            finally:
                dt = time.perf_counter() - t0
                spent[0] += dt
                if nested:
                    in_krylov[0] += dt

        disc.residual = timed_residual
        rep = _solve(prob, recorder=rec,
                     precond=PreconditionerConfig(nparts=2))
        its = rep.total_linear_iterations
        assert its > 0
        assert rec.phase_seconds("flux") >= 0.9 * spent[0]
        assert rec.phase_calls("flux") >= rep.num_steps + its
        assert in_krylov[0] > 0.5 * spent[0]
        assert rec.self_seconds("krylov") \
            <= rec.phase_seconds("krylov") - in_krylov[0]

    def test_higher_initial_cfl_fewer_steps(self, wing):
        """Fig. 5's effect: for smooth flows, a larger initial CFL
        converges in fewer pseudo-timesteps."""
        slow = _solve(wing, ptc=PTCConfig(cfl0=1.0), max_steps=60)
        fast = _solve(wing, ptc=PTCConfig(cfl0=50.0), max_steps=60)
        assert fast.converged
        assert fast.num_steps < slow.num_steps


class TestPreconditionerKnobs:
    def test_multidomain_converges(self, wing):
        rep = _solve(wing, precond=PreconditionerConfig(nparts=4,
                                                        fill_level=0))
        assert rep.converged

    def test_more_subdomains_more_linear_its(self, wing):
        its = {}
        for p in (1, 8):
            rep = _solve(wing, precond=PreconditionerConfig(
                nparts=p, fill_level=0), max_steps=25)
            assert rep.converged
            its[p] = rep.total_linear_iterations
        assert its[8] >= its[1]

    def test_fp32_preconditioner_same_convergence(self, wing):
        """The Table 2 claim: fp32 factor storage under an fp64 Krylov
        basis leaves the linear iteration counts untouched."""
        solvers = {}
        reports = {}
        for policy in ("fp64", "fp32-precond"):
            cfg = SolverConfig(
                ptc=PTCConfig(cfl0=10.0), max_steps=30,
                target_reduction=1e-6, matrix_free=True, policy=policy,
                precond=PreconditionerConfig(nparts=4, fill_level=1))
            solvers[policy] = NKSSolver(wing.disc, cfg)
            reports[policy] = solvers[policy].solve(wing.initial.flat())
        r64, r32 = reports["fp64"], reports["fp32-precond"]
        assert r32.converged
        for policy, dtype in (("fp64", np.float64),
                              ("fp32-precond", np.float32)):
            s = solvers[policy]
            assert all(sd.factor.storage_dtype == dtype
                       for sd in s._pc.subdomains)
            assert s._ws.V.dtype == np.float64      # Krylov basis
        assert ([st.linear_iterations for st in r32.steps]
                == [st.linear_iterations for st in r64.steps])

    def test_jacobian_lag(self, wing):
        rec = TraceRecorder()
        rep = _solve(wing, recorder=rec, jacobian_lag=3)
        assert rep.converged
        # Lagged refresh: the preconditioner was set up on fewer steps.
        setups = rec.phase_calls("precond_setup")
        assert 0 < setups <= (rep.num_steps + 2) // 3 + 1

    def test_given_partition(self, wing):
        labels = np.zeros(wing.mesh.num_vertices, dtype=np.int64)
        labels[wing.mesh.num_vertices // 2:] = 1
        rep = _solve(wing, precond=PreconditionerConfig(
            nparts=2, partitioner="given", labels=labels))
        assert rep.converged

    def test_unknown_partitioner_raises(self, wing):
        with pytest.raises(ValueError):
            NKSSolver(wing.disc, SolverConfig(
                precond=PreconditionerConfig(nparts=2,
                                             partitioner="magic")))


class TestConfigValidation:
    def test_bad_max_steps(self):
        with pytest.raises(ValueError):
            SolverConfig(max_steps=0)

    def test_bad_reduction(self):
        with pytest.raises(ValueError):
            SolverConfig(target_reduction=0.0)

    def test_bad_lag(self):
        with pytest.raises(ValueError):
            SolverConfig(jacobian_lag=0)

    def test_threads_knob_is_gone(self):
        # Deleted in PR 20: a loud TypeError, not a silent 1-thread run.
        with pytest.raises(TypeError):
            SolverConfig(threads=2)

    def test_krylov_enum_coercion(self):
        cfg = KrylovConfig(orthogonalization="cgs")
        from repro.solvers.gmres import Orthogonalization
        assert cfg.orthogonalization is Orthogonalization.CGS
