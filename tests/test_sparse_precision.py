"""The precision policy: the one reduced-precision knob (Table 2).

* **policy validation** — exactly three named tiers; anything narrower
  than fp32 is rejected for the Krylov basis and for factor storage;
* **fp32 storage accuracy** — storing values in fp32 rounds them once
  and every operation widens on load, so the SpMV error lands under
  the Higham-style :func:`tests.helpers.storage_roundoff_bound` and the
  ILU solve is perturbed by O(eps_fp32), which pins the error to the
  storage rounding rather than any kernel defect;
* **traffic pricing** — the bandwidth model prices fp32 values at half
  the matrix stream with the index stream unchanged.
"""

import numpy as np
import pytest

from repro.euler import wing_problem
from repro.perfmodel.spmv_model import spmv_traffic_bytes
from repro.sparse.bsr import BSRMatrix
from repro.sparse.ilu import ilu_bsr
from repro.sparse.precision import _POLICIES, PrecisionPolicy
from tests.helpers import storage_roundoff_bound


@pytest.fixture(scope="module")
def wing():
    """Tiny perturbed wing: Jacobian, ILU(1) factor, probe vectors."""
    prob = wing_problem(7, 5, 4)
    rng = np.random.default_rng(3)
    q = prob.initial.flat() + 0.02 * rng.standard_normal(
        prob.disc.num_unknowns)
    jac = prob.disc.shifted_jacobian(q, cfl=10.0)
    factor = ilu_bsr(jac, 1)
    x = rng.standard_normal(jac.shape[1])
    b = rng.standard_normal(jac.shape[0])
    return jac, factor, x, b


class TestPrecisionPolicy:
    def test_named_tiers(self):
        assert set(_POLICIES) == {"fp64", "fp32-precond", "fp32"}
        p64 = PrecisionPolicy.named("fp64")
        assert (p64.krylov_dtype, p64.precond_dtype) \
            == (np.float64, np.float64)
        ppc = PrecisionPolicy.named("fp32-precond")
        assert (ppc.krylov_dtype, ppc.precond_dtype) \
            == (np.float64, np.float32)
        p32 = PrecisionPolicy.named("fp32")
        assert (p32.krylov_dtype, p32.precond_dtype) \
            == (np.float32, np.float32)

    def test_named_passes_instances_through(self):
        p = PrecisionPolicy.named("fp32")
        assert PrecisionPolicy.named(p) is p

    def test_unknown_name_raises(self):
        for name in ("fp8", "fp16-pool", "single"):
            with pytest.raises(ValueError, match="unknown precision policy"):
                PrecisionPolicy.named(name)

    def test_half_precision_rejected(self):
        with pytest.raises(ValueError, match="krylov_dtype"):
            PrecisionPolicy("bad", np.float16, np.float64)
        with pytest.raises(ValueError, match="precond_dtype"):
            PrecisionPolicy("bad", np.float64, np.float16)
        assert not hasattr(PrecisionPolicy.named("fp32"), "pool_dtype")


class TestFp32Storage:
    def test_spmv_under_storage_roundoff_bound(self, wing):
        jac, _factor, x, _b = wing
        a32 = BSRMatrix(jac.indptr, jac.indices,
                        jac.data.astype(np.float32), jac.nbcols)
        err = np.abs(a32 @ x - jac @ x)
        a_abs = BSRMatrix(jac.indptr, jac.indices, np.abs(jac.data),
                          jac.nbcols)
        row_nnz = np.repeat(np.diff(jac.indptr) * jac.bs, jac.bs)
        bound = storage_roundoff_bound(a_abs @ np.abs(x), row_nnz,
                                       np.float32)
        assert np.all(err <= bound)

    def test_ilu_storage_error_scales_with_eps(self, wing):
        """fp32 factor storage perturbs the solve by O(eps_fp32)
        relative to the fp64 factor — not more."""
        _jac, factor, _x, b = wing
        f32 = factor.astype_storage(np.float32)
        assert f32.storage_dtype == np.float32
        assert f32.factor_bytes * 2 == factor.factor_bytes
        ref = factor.solve(b)
        got = f32.solve(b)
        assert got.dtype == np.float64        # arithmetic stays double
        # Triangular solves amplify storage rounding by a modest
        # condition-dependent factor; 100x eps absorbs it.
        assert float(np.abs(got - ref).max()) \
            <= 100 * np.finfo(np.float32).eps * float(np.abs(ref).max())

    def test_fp32_values_shrink_the_model(self, wing):
        jac, _factor, _x, _b = wing
        nnz = jac.nnzb * jac.bs * jac.bs
        t64 = spmv_traffic_bytes(jac.shape[0], nnz, block_size=jac.bs,
                                 value_bytes=8)
        t32 = spmv_traffic_bytes(jac.shape[0], nnz, block_size=jac.bs,
                                 value_bytes=4)
        assert t32.matrix_bytes * 2 == t64.matrix_bytes
        assert t32.index_bytes == t64.index_bytes
        # ... and the indices it leaves alone are the matrix's own: one
        # per stored block plus the block-row pointer.
        assert t64.index_bytes == (jac.nnzb + jac.nbrows + 1) * 4
        assert t32.total < t64.total
