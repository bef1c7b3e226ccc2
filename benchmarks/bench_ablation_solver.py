"""Ablation: solver-level design choices.

Matrix-free versus assembled operator, Jacobian lag, and RASM versus
standard ASM — the algorithmic alternatives the paper weighs.
"""

from conftest import run_once

from repro.core import NKSSolver, SolverConfig
from repro.core.config import PreconditionerConfig
from repro.euler.problems import wing_problem
from repro.solvers.ptc import PTCConfig
from repro.telemetry import TraceRecorder


def _solve(prob, recorder=None, **kw):
    # the oracle tier, like every solve behind a paper artefact
    defaults = dict(ptc=PTCConfig(cfl0=10.0), max_steps=30,
                    target_reduction=1e-6, engine="numpy")
    defaults.update(kw)
    return NKSSolver(prob.disc, SolverConfig(**defaults),
                     recorder=recorder).solve(prob.initial.flat())


def test_matrix_free_vs_assembled(benchmark, record_table):
    """Matrix-free (true 2nd-order operator) reaches the target in far
    fewer pseudo-timesteps than defect correction."""
    prob = wing_problem(11, 7, 5)

    def both():
        mf = _solve(prob, matrix_free=True, jacobian_lag=2)
        dc = _solve(prob, matrix_free=False, max_steps=80)
        return mf, dc

    mf, dc = run_once(benchmark, both)
    record_table("ablation_matrix_free",
                 f"matrix-free: steps={mf.num_steps} "
                 f"its={mf.total_linear_iterations} conv={mf.converged}\n"
                 f"defect-corr: steps={dc.num_steps} "
                 f"its={dc.total_linear_iterations} conv={dc.converged}")
    assert mf.converged and dc.converged
    assert mf.num_steps < dc.num_steps


def test_jacobian_lag(benchmark, record_table):
    """Lagging the preconditioner refresh trades a few extra linear
    iterations for far fewer factorisations."""
    prob = wing_problem(11, 7, 5)

    def sweep():
        out = {}
        for lag in (1, 2, 4):
            rec = TraceRecorder()
            rep = _solve(prob, recorder=rec, matrix_free=True,
                         jacobian_lag=lag)
            setups = rec.phase_calls("precond_setup")
            out[lag] = (rep.num_steps, rep.total_linear_iterations, setups,
                        rep.converged)
        return out

    out = run_once(benchmark, sweep)
    lines = [f"lag={lag}: steps={v[0]} its={v[1]} factorisations={v[2]}"
             for lag, v in out.items()]
    record_table("ablation_jacobian_lag", "\n".join(lines))
    assert all(v[3] for v in out.values())
    assert out[4][2] < out[1][2]


def test_rasm_vs_asm(benchmark, record_table):
    """Restricted ASM needs half the communication phases and converges
    no slower — the paper's reason for running RASM."""
    prob = wing_problem(11, 7, 5)

    def both():
        out = {}
        for variant in ("rasm", "asm"):
            cfg = SolverConfig(
                ptc=PTCConfig(cfl0=10.0), max_steps=6,
                target_reduction=1e-12, matrix_free=True, engine="numpy",
                precond=PreconditionerConfig(nparts=8, overlap=1,
                                             fill_level=0, variant=variant))
            solver = NKSSolver(prob.disc, cfg)
            rep = solver.solve(prob.initial.flat())
            out[variant] = (rep.total_linear_iterations,
                            solver._pc.communication_phases())
        return out

    out = run_once(benchmark, both)
    record_table("ablation_rasm",
                 "\n".join(f"{k}: its={v[0]} comm_phases={v[1]}"
                           for k, v in out.items()))
    assert out["rasm"][1] == 1 and out["asm"][1] == 2
    assert out["rasm"][0] <= out["asm"][0] * 1.25
