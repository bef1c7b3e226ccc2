"""Ablation microbenchmarks of the core kernels (real host timings).

These time the actual numpy kernels (pytest-benchmark's sweet spot)
for the design alternatives DESIGN.md calls out: SpMV storage formats,
level-scheduled versus row-serial triangular solves, Gram-Schmidt
variants, and ILU fill levels.
"""

import numpy as np
import pytest

from repro.euler.problems import wing_problem
from repro.solvers import gmres
from repro.sparse import ilu_bsr, ilu_csr
from repro.sparse.trisolve import lower_solve_csr


@pytest.fixture(scope="module")
def jacobian():
    prob = wing_problem(16, 10, 8)
    return prob, prob.disc.shifted_jacobian(prob.initial.flat(), cfl=100.0)


class TestSpMVFormats:
    def test_spmv_bsr(self, benchmark, jacobian):
        prob, a = jacobian
        x = np.ones(a.shape[1])
        benchmark(lambda: a @ x)

    def test_spmv_csr_interlaced(self, benchmark, jacobian):
        prob, a = jacobian
        csr = a.to_csr()
        x = np.ones(csr.shape[1])
        benchmark(lambda: csr @ x)

    def test_spmv_csr_field_split(self, benchmark, jacobian):
        from repro.sparse.layouts import field_split_csr_from_bsr
        prob, a = jacobian
        fs = field_split_csr_from_bsr(a)
        x = np.ones(fs.shape[1])
        benchmark(lambda: fs @ x)


class TestTriangularSolve:
    def test_level_scheduled(self, benchmark, jacobian):
        prob, a = jacobian
        f = ilu_bsr(a, 0)
        b = np.ones(a.shape[0])
        benchmark(lambda: f.solve(b))

    def test_row_serial_reference(self, benchmark, jacobian):
        """Row-at-a-time scalar forward solve — the unscheduled baseline
        the level scheduling replaces."""
        prob, a = jacobian
        f = ilu_csr(a.to_csr(), 0)
        p = f.pattern
        b = np.ones(a.shape[0])

        def serial():
            x = b.copy()
            for i in range(p.n):
                s, e = p.l_indptr[i], p.l_indptr[i + 1]
                if e > s:
                    x[i] -= f.l_data[s:e] @ x[p.l_indices[s:e]]
            return x

        ref = lower_solve_csr(p.l_indptr, p.l_indices, f.l_data, b,
                              f.solve_levels[0])
        assert np.allclose(serial(), ref)
        benchmark(serial)


class TestOrthogonalization:
    @pytest.mark.parametrize("orth", ["mgs", "cgs"])
    def test_gmres_orthogonalization(self, benchmark, jacobian, orth):
        prob, a = jacobian
        f = ilu_bsr(a, 1)
        b = np.ones(a.shape[0])
        res = benchmark(lambda: gmres(a, b, M=f, rtol=1e-8, restart=30,
                                      maxiter=120, orthog=orth))
        assert res.converged


class TestILUFactorisation:
    @pytest.mark.parametrize("fill", [0, 1, 2])
    def test_ilu_fill_levels(self, benchmark, jacobian, fill):
        prob, a = jacobian
        # Factor a subdomain-sized block (as the ASM setup does).
        sub = a.submatrix(np.arange(min(300, a.nbrows)))
        benchmark.pedantic(lambda: ilu_bsr(sub, fill), rounds=2,
                           iterations=1)


class TestResidualKernels:
    def test_residual_first_order(self, benchmark, jacobian):
        prob, _ = jacobian
        q = prob.initial.flat()
        benchmark(lambda: prob.disc.residual(q, second_order=False))

    def test_residual_second_order(self, benchmark, jacobian):
        prob, _ = jacobian
        q = prob.initial.flat()
        benchmark(lambda: prob.disc.residual(q, second_order=True))

    def test_jacobian_assembly(self, benchmark, jacobian):
        prob, _ = jacobian
        q = prob.initial.flat()
        benchmark.pedantic(lambda: prob.disc.assemble_jacobian(q),
                           rounds=3, iterations=1)
