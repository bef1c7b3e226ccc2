"""The compiled kernel tier against its numpy oracles.

Equivalence comes in two strengths, and each test pins the right one:

* **bitwise** — the scatter kernels, the Green-Gauss gradients, the
  first-order Jacobian assembly and the boundary closure accumulate in
  exactly the oracle's order (``np.bincount`` sums sequentially in
  occurrence order, and so do the compiled loops), so
  ``np.array_equal`` must hold;
* **normwise** — the block kernels (spmv_bsr, block ILU and block
  trisolve, the SPMD gather-SpMV) sum block columns sequentially where
  ``np.einsum`` uses SIMD pairwise order.  Raw ULP distance inflates
  on near-zero entries through cancellation, so the bound is relative
  to the result norm (machine-epsilon scale), not per-element.

Scalar (CSR) matrices have no compiled kernel: on the compiled engine
a scalar ILU shares only the C symbolic phase.

On a machine without cffi+cc the dispatchers return
None/False and every "compiled" path below collapses onto the oracle;
the equivalence assertions then hold trivially and the dedicated
degradation tests pin that behaviour explicitly.
"""

import importlib.util
import json
import os
import re
from dataclasses import replace
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.config import (KrylovConfig, PreconditionerConfig,
                               SolverConfig)
from repro.core.driver import NKSSolver
from repro.euler import discretization, wing_problem
from repro.euler.fluxes import (GAMMA, compressible_flux,
                                compressible_wavespeed, flux_family,
                                incompressible_flux,
                                incompressible_wavespeed, rusanov_flux)
from repro.euler.reconstruction import (green_gauss_gradients,
                                        reconstruct_edge_states)
from repro.kernels import capability, cbackend
from repro.mesh.dualmesh import DualMetrics, compute_dual_metrics
from repro.mesh.mesh import Mesh
from repro.mesh.orderings import apply_orderings
from repro.mesh.tetgen import box_mesh
from repro.parallel import SPMDLayout, distributed_matvec
from repro.partition import kway_partition
from repro.solvers.ptc import PTCConfig
from repro.sparse.bsr import BSRMatrix
from repro.sparse.ilu import ilu_bsr, ilu_csr
from repro.sparse.segsum import segment_sum
from repro.sparse.trisolve import (_row_dot, _row_dot_blocks, level_schedule,
                                   lower_solve_blocks,
                                   upper_solve_blocks_inplace)

HAS_BACKEND = capability.resolve_engine("compiled") == "c"
HAS_TOOLCHAIN = (importlib.util.find_spec("cffi") is not None
                 and any(shutil.which(cc) for cc in ("gcc", "cc", "clang")))
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

needs_backend = pytest.mark.skipif(
    not HAS_BACKEND, reason="no compiled backend (cffi+cc) available")

#: edges per block of the C flux kernels (the C source's EDGE_BLOCK)
EDGE_BLOCK = int(re.search(r"#define EDGE_BLOCK (\d+)",
                           cbackend._SOURCE).group(1))


def assert_norm_close(got, ref):
    """Normwise machine-epsilon agreement (block-kernel contract)."""
    scale = max(1.0, float(np.abs(ref).max()))
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * scale)


@pytest.fixture(scope="module")
def wing():
    """A perturbed tiny wing state plus its first-order Jacobian."""
    prob = wing_problem(7, 5, 4)
    rng = np.random.default_rng(7)
    q = prob.initial.flat() + 0.02 * rng.standard_normal(
        prob.disc.num_unknowns)
    jac = prob.disc.assemble_jacobian(q)
    return prob, q, jac


@pytest.fixture
def bare_machine(monkeypatch):
    """Fake a machine with no cffi: importing it fails."""
    capability.invalidate()
    monkeypatch.setitem(sys.modules, "cffi", None)
    yield
    capability.invalidate()


class TestCapability:
    def test_numpy_resolves_to_itself(self):
        assert capability.resolve_engine("numpy") == "numpy"

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            capability.resolve_engine("cuda")

    def test_disable_env_forces_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "1")
        assert capability.resolve_engine("compiled") == "numpy"
        assert kernels.backend_for("compiled") is None

    def test_disable_env_read_on_every_call(self, monkeypatch):
        """The kill-switch is not memoised: flipping it between two
        calls of one process flips the resolution."""
        expect = capability.resolve_engine("compiled")
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "1")
        assert capability.resolve_engine("compiled") == "numpy"
        monkeypatch.delenv("REPRO_KERNELS_DISABLE")
        assert capability.resolve_engine("compiled") == expect

    def test_bare_machine_degrades_to_numpy(self, bare_machine):
        assert capability.resolve_engine("compiled") == "numpy"
        assert kernels.backend_for("compiled") is None

    def test_solver_config_validates_engine(self):
        with pytest.raises(ValueError, match="engine"):
            SolverConfig(engine="fortran")


@pytest.fixture
def broken_c_build(monkeypatch):
    """C toolchain present but the build fails."""
    from repro.kernels import cbackend
    if not HAS_TOOLCHAIN:
        pytest.skip("no C toolchain to break")
    capability.invalidate()
    monkeypatch.setattr(cbackend, "_SOURCE", "#error deliberately broken\n")
    yield
    capability.invalidate()


class TestBuildCache:
    def test_module_name_keys_source_and_flags(self, monkeypatch):
        """A changed flag list (or source) names a different extension,
        so a cached library built with other flags is never reused."""
        from repro.kernels import cbackend
        name = cbackend._module_name()
        assert name == cbackend._module_name(cbackend.COMPILE_ARGS)
        assert name != cbackend._module_name(("-O2", "-ffp-contract=off"))
        assert name != cbackend._module_name(cbackend.COMPILE_ARGS[::-1])
        monkeypatch.setattr(cbackend, "_SOURCE", cbackend._SOURCE + "\n")
        assert cbackend._module_name() != name

    def test_flags_keep_fp_contraction_off(self):
        from repro.kernels import cbackend
        assert "-ffp-contract=off" in cbackend.COMPILE_ARGS

    @pytest.mark.parametrize("extra, want", [
        ("avx512f avx512bw avx512cd avx512dq avx512vl", "x86-64-v4"),
        ("avx512f", "x86-64-v3"), ("", "x86-64-v3")])
    def test_host_isa_reads_the_cpu_flags(self, tmp_path, extra, want):
        from repro.kernels import cbackend
        v3 = " ".join(sorted(cbackend._V3))
        info = tmp_path / "cpuinfo"
        info.write_text(f"processor\t: 0\nflags\t\t: fpu {v3} {extra}\n")
        assert cbackend._host_isa(str(info)) == want
        info.write_text(f"flags\t\t: fpu {v3.replace('avx2', '')}\n")
        assert cbackend._host_isa(str(info)) is None
        assert cbackend._host_isa(str(tmp_path / "missing")) is None

    @needs_backend
    def test_a_rejected_march_falls_back_to_the_portable_build(
            self, monkeypatch):
        from repro.kernels import cbackend
        bogus = cbackend.BASE_ARGS + ("-march=no-such-level",)
        monkeypatch.setattr(cbackend, "COMPILE_ARGS", bogus)
        backend = cbackend.load_cbackend(bogus)
        assert backend is not None and backend.isa == "default"


class TestQuarantine:
    """Silent degradation is gone: broken backends carry their reason."""

    def test_broken_c_build_quarantined_and_warns(self, broken_c_build):
        with pytest.warns(RuntimeWarning, match="fell back to the numpy"):
            assert kernels.backend_for("compiled") is None
        rep = capability.capability_report()
        assert rep["resolved"] == "numpy"
        assert rep["isa"] is None
        assert set(rep["quarantine"]) == {"c"}
        q = rep["quarantine"]["c"]
        assert q["stage"] == "build"
        assert q["exc_type"] not in (None, "ModuleNotFoundError",
                                     "FileNotFoundError")
        assert q["message"]
        assert q["traceback_tail"]

    def test_fallback_warns_only_once(self, broken_c_build):
        with pytest.warns(RuntimeWarning):
            kernels.backend_for("compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert capability.resolve_engine("compiled") == "numpy"

    def test_bare_machine_stays_silent(self, bare_machine):
        # Not-installed is the documented contract, not a failure.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert capability.resolve_engine("compiled") == "numpy"
            q = capability.capability_report()["quarantine"]["c"]
        assert q["stage"] == "probe"
        assert q["exc_type"] == "ModuleNotFoundError"

    def test_missing_compiler_recorded_as_benign(self, monkeypatch):
        capability.invalidate()
        monkeypatch.setattr(capability.shutil, "which", lambda cc: None)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert capability.resolve_engine("compiled") == "numpy"
            q = capability.capability_report()["quarantine"]["c"]
            assert q["stage"] == "probe"
            assert q["exc_type"] == "FileNotFoundError"
        finally:
            capability.invalidate()

    def test_cli_prints_json_report(self, capsys):
        assert capability.main() == 0
        rep = json.loads(capsys.readouterr().out)
        assert set(rep) == {"disabled", "resolved", "isa", "quarantine"}

    def test_module_entry_point_runs_once(self):
        """``python -m repro.kernels`` reports from the one imported
        ``capability`` module: exit 0, the JSON report on stdout, and
        no runpy double-import warning on stderr."""
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-m", "repro.kernels"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        rep = json.loads(proc.stdout)
        assert set(rep) == {"disabled", "resolved", "isa", "quarantine"}
        assert (rep["isa"] in ("x86-64-v4", "x86-64-v3", "default")
                if rep["resolved"] == "c" else rep["isa"] is None)


class TestDispatchGuards:
    """Inputs outside a kernel's contract must fall back, not crash."""

    def test_bare_machine_dispatch_returns_none(self, bare_machine):
        e = np.array([0, 1], dtype=np.int64)
        w = np.ones((2, 4))
        s = np.ones((2, 3))
        assert kernels.rusanov_scatter(e, e, w, w, s, 2, "incompressible",
                                       10.0, "compiled") is None

    def test_f32_weights_refused(self):
        e = np.array([0, 1], dtype=np.int64)
        w = np.ones((2, 4), dtype=np.float32)
        s = np.ones((2, 3))
        assert kernels.rusanov_scatter(e, e, w, w, s, 2, "incompressible",
                                       10.0, "compiled") is None

    def test_f32_spmv_data_refused(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.int64)
        data = np.ones((1, 2, 2), dtype=np.float32)
        x = np.ones(2)
        assert kernels.spmv_bsr(indptr, indices, data, x, 1, 1,
                                "compiled") is None

    def test_mismatched_factor_dtypes_refused(self):
        indptr = np.array([0, 0], dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)
        data = np.empty((0, 2, 2), dtype=np.float32)
        inv_diag = np.ones((1, 2, 2), dtype=np.float64)
        assert kernels.trisolver(indptr, indices, data, inv_diag, 2,
                                 kernels.backend_for("compiled")) is None

    def test_oversized_block_refused(self):
        nb, bs = 2, kernels.MAX_BS + 1
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([0, 1], dtype=np.int64)
        data = np.ones((2, bs, bs))
        x = np.ones(nb * bs)
        assert kernels.spmv_bsr(indptr, indices, data, x, nb, nb,
                                "compiled") is None


    @pytest.mark.parametrize("bad", ["past_end", "negative"])
    @pytest.mark.parametrize("kernel", ["rusanov_scatter", "green_gauss",
                                        "muscl_rusanov_scatter"])
    def test_out_of_range_endpoint_declines(self, kernel, bad):
        """An endpoint outside [0, n) must reach the user as the numpy
        oracle's exception, never as a write outside a buffer: the
        dispatcher declines, the oracle raises, and the C symbol, run
        on buffers with guard words either side, leaves the guards
        alone and names the offending edge.  The bad edge is the last
        of three, then one in the second block of the blocked flux
        kernels, with a whole block scattered before it and in-range
        edges after it."""
        for ne, last in ((3, 2), (2 * EDGE_BLOCK + 3, EDGE_BLOCK + 5)):
            _assert_bad_endpoint_declines(kernel, bad, ne, last)


def _assert_bad_endpoint_declines(kernel, bad, ne, last):
    """``ne`` edges over the 4 vertices of one tet, every endpoint in
    range but one of edge ``last``."""
    n, ncomp = 4, 4
    e0 = np.arange(ne, dtype=np.int64) % (n - 1)
    e1 = e0 + 1
    if bad == "past_end":
        e0[last] = n
    else:
        e1[last] = -1
    rng = np.random.default_rng(41)
    q = 1.0 + 0.1 * rng.standard_normal((n, ncomp))
    w = rng.standard_normal((e0.size, ncomp))
    s = rng.standard_normal((e0.size, 3))
    grad = rng.standard_normal((n, ncomp, 3))
    mesh = Mesh(coords=rng.standard_normal((n, 3)),
                tets=np.array([[0, 1, 2, 3]]),
                edges=np.stack([e0, e1], axis=1))
    dual = DualMetrics(edge_normals=s, dual_volumes=np.ones(n),
                       bnd_faces=np.empty((0, 3), dtype=np.int64),
                       bnd_vertex_normals=np.zeros((n, 3)))

    def scatter_oracle(f):
        return segment_sum(e0, f, n) - segment_sum(e1, f, n)

    dispatch, oracle, symbol, args, out_shape = {
        "rusanov_scatter": (
            lambda: kernels.rusanov_scatter(
                e0, e1, w, w, s, n, "incompressible", 10.0, "compiled"),
            lambda: scatter_oracle(rusanov_flux(
                w, w, s, incompressible_flux, incompressible_wavespeed)),
            "rusanov_scatter_inc", (n, e0, e1, w, w, s, 10.0),
            (n, ncomp)),
        "green_gauss": (
            lambda: kernels.green_gauss(
                e0, e1, q, s, dual.bnd_vertex_normals,
                dual.dual_volumes, "compiled"),
            lambda: green_gauss_gradients(mesh, dual, q,
                                          engine="compiled"),
            "green_gauss_f64",
            (n, ncomp, e0, e1, q, s, dual.bnd_vertex_normals,
             dual.dual_volumes), (n, ncomp, 3)),
        "muscl_rusanov_scatter": (
            lambda: kernels.muscl_rusanov_scatter(
                e0, e1, q, grad, mesh.coords, s, "none",
                "incompressible", 10.0, "compiled"),
            lambda: scatter_oracle(rusanov_flux(
                *reconstruct_edge_states(mesh, dual, q, grad, "none"),
                s, incompressible_flux, incompressible_wavespeed)),
            "muscl_rusanov_scatter_inc",
            (n, e0, e1, q, grad, mesh.coords, s, 0, 10.0), (n, ncomp)),
    }[kernel]
    assert dispatch() is None
    with pytest.raises((ValueError, IndexError)):
        oracle()

    backend = kernels.backend_for("compiled")
    if backend is None:
        return
    guard, size = 16, int(np.prod(out_shape))
    bufs = [np.full(size + 2 * guard, 7.25) for _ in range(2)]
    outs = [b[guard:guard + size] for b in bufs]
    for out in outs:
        out[:] = 0.0

    def ptr(a):
        return backend.ptr(a) if isinstance(a, np.ndarray) else a

    code = getattr(backend.lib, symbol)(
        e0.size, *map(ptr, args), *(backend.ptr(o, True) for o in outs))
    assert code == last
    for b in bufs:
        assert np.all(b[:guard] == 7.25) and np.all(b[-guard:] == 7.25)


class TestBitwiseKernels:
    """The scatter family and the Jacobian assembly: compiled == numpy
    exactly."""

    def test_jacobian_assembly(self, wing):
        prob, q, jac = wing
        disc = prob.disc
        disc.engine = "compiled"
        try:
            got = disc.assemble_jacobian(q)
        finally:
            disc.engine = "numpy"
        assert np.array_equal(got.data, jac.data)
        assert np.array_equal(got.indptr, jac.indptr)

    def test_timestep_shift(self, wing):
        prob, q, jac = wing
        disc = prob.disc
        ref = disc.shifted_jacobian(q, cfl=25.0)
        disc.engine = "compiled"
        try:
            got = disc.shifted_jacobian(q, cfl=25.0)
        finally:
            disc.engine = "numpy"
        assert np.array_equal(got.data, ref.data)

    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    def test_ilu_trisolve_csr(self, wing, storage):
        """The scalar factor shares only the C symbolic phase; its
        numeric phase and solves are the numpy tier's on either
        engine."""
        _, q, jac = wing
        a = jac.to_csr()
        ref = ilu_csr(a, fill_level=1, storage_dtype=storage)
        fac = ilu_csr(a, fill_level=1, storage_dtype=storage,
                      engine="compiled")
        rng = np.random.default_rng(5)
        b = rng.standard_normal(a.nrows)
        assert np.array_equal(fac.solve(b), ref.solve(b))


class TestNormwiseKernels:
    """The block family: sequential vs pairwise j-summation."""

    def test_residual_first_and_second_order(self, wing):
        """The fused Rusanov kernel computes the whole face flux —
        wave speed, left/right fluxes, dissipation — per edge in C,
        where the numpy oracle vectorises each sub-expression across
        all edges; the operation *order* inside one flux differs, so
        equivalence is normwise (it was bitwise when only the scatter
        was compiled)."""
        prob, q, _ = wing
        disc = prob.disc
        assert disc.engine == "numpy"
        for second in (False, True):
            ref = disc.residual(q, second_order=second)
            disc.engine = "compiled"
            try:
                got = disc.residual(q, second_order=second)
            finally:
                disc.engine = "numpy"
            assert_norm_close(got, ref)

    def test_spmv_bsr(self, wing):
        _, q, jac = wing
        jc = jac.copy()
        jc.engine = "compiled"
        rng = np.random.default_rng(11)
        x = rng.standard_normal(jac.shape[1])
        assert_norm_close(jc.matvec(x), jac.matvec(x))

    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    def test_ilu_trisolve_bsr(self, wing, storage):
        _, q, jac = wing
        ref = ilu_bsr(jac, fill_level=1, storage_dtype=storage)
        fac = ilu_bsr(jac, fill_level=1, storage_dtype=storage,
                      engine="compiled")
        rng = np.random.default_rng(13)
        b = rng.standard_normal(jac.shape[0])
        got, want = fac.solve(b), ref.solve(b)
        if storage is np.float32:
            # f32 factors bound accuracy at f32 epsilon, engine aside.
            np.testing.assert_allclose(
                got, want, rtol=0.0,
                atol=1e-5 * max(1.0, float(np.abs(want).max())))
        else:
            assert_norm_close(got, want)

    def test_distributed_matvec(self, wing):
        prob, q, jac = wing
        labels = kway_partition(prob.mesh.vertex_graph(), 3, seed=0)
        layout = SPMDLayout.build(prob.mesh.edges, labels)
        rng = np.random.default_rng(17)
        x = rng.standard_normal(jac.shape[1])
        ref = distributed_matvec(jac, layout, x, executor="seq")
        jc = jac.copy()
        jc.engine = "compiled"
        got = distributed_matvec(jc, layout, x, executor="seq")
        assert_norm_close(got, ref)


class TestFloat32Vectors:
    """An fp32 Krylov vector (the fp32 policy's GMRES restart ``b - A
    x``, every matvec of a seq solve under it) on float64 blocks:
    widening it is exact, so the compiled SpMV of ``x`` — global or one
    rank's — is the compiled SpMV of ``x.astype(float64)`` bit for bit,
    and the einsum oracle widens the same way (CI runs the class on the
    numpy tier too)."""

    @staticmethod
    def _x32(jac, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(jac.shape[1]).astype(np.float32)

    def test_dispatcher_widens_exactly(self, wing):
        _, _, jac = wing
        x = self._x32(jac, 19)
        got = kernels.spmv_bsr(jac.indptr, jac.indices, jac.data, x,
                               jac.nbrows, jac.nbcols, "compiled")
        want = kernels.spmv_bsr(jac.indptr, jac.indices, jac.data,
                                x.astype(np.float64), jac.nbrows,
                                jac.nbcols, "compiled")
        if want is None:
            assert got is None
            return
        assert got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(want))

    def test_rank_dispatcher_widens_exactly(self, wing):
        prob, _, jac = wing
        layout = SPMDLayout.build(prob.mesh.edges, np.zeros(
            prob.mesh.num_vertices, dtype=np.int64))
        rd = layout.ranks[0]
        flat, cols, seg = layout.plan.gather(jac).rank(0)
        x = self._x32(jac, 29)
        got, want = (kernels.gather_spmv_bsr(jac.data[flat], cols, seg, v,
                                             rd.n_owned, "compiled")
                     for v in (x, x.astype(np.float64)))
        if want is None:
            assert got is None
            return
        assert got is not None and got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(want))

    def test_matvec_matches_the_oracle(self, wing):
        _, _, jac = wing
        x = self._x32(jac, 23)
        jc = jac.copy()
        jc.engine = "compiled"
        got, ref = jc.matvec(x), jac.matvec(x)
        assert got.dtype == ref.dtype == np.float64
        assert_norm_close(got, ref)
        assert np.array_equal(_bits(ref), _bits(jac.matvec(
            x.astype(np.float64))))


def _bits(a):
    """The raw bit patterns, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestJacobianAssembly:
    """The C first-order assembly (``kernels.rusanov_jacobian_scatter``)
    against the numpy composition of ``assemble_jacobian`` and
    ``shifted_jacobian``: bitwise, signed zeros included.  Every test
    also holds with ``REPRO_KERNELS_DISABLE=1`` (CI runs the class
    twice): the dispatcher declines and the numpy tier is compared to
    itself."""

    @staticmethod
    def _assert_bitwise(disc, q, cfl=25.0):
        assert disc.engine == "numpy"
        ref = disc.assemble_jacobian(q), disc.shifted_jacobian(q, cfl)
        disc.engine = "compiled"
        try:
            got = disc.assemble_jacobian(q), disc.shifted_jacobian(q, cfl)
        finally:
            disc.engine = "numpy"
        for r, g in zip(ref, got):
            assert g.engine == "compiled"
            assert np.array_equal(g.indptr, r.indptr)
            assert np.array_equal(g.indices, r.indices)
            assert np.array_equal(_bits(g.data), _bits(r.data))

    @staticmethod
    def _perturbed(prob, scale, seed):
        rng = np.random.default_rng(seed)
        return prob.initial.flat() * (1.0 + scale * rng.standard_normal(
            prob.disc.num_unknowns))

    @pytest.mark.parametrize("compressible", [False, True])
    def test_both_families_on_wing(self, compressible):
        prob = wing_problem(7, 5, 4, compressible=compressible)
        self._assert_bitwise(prob.disc, self._perturbed(prob, 0.05, 59))

    @pytest.mark.parametrize("compressible", [False, True])
    def test_freestream_signed_zeros(self, compressible):
        """The freestream has exact zero velocity components, so
        entries of A and the ``lam * 0`` terms are signed zeros."""
        prob = wing_problem(7, 5, 4, compressible=compressible)
        self._assert_bitwise(prob.disc, prob.initial.flat())

    def test_roe_preconditioner_is_the_rusanov_jacobian(self, monkeypatch):
        """A Roe residual's preconditioner matrix differentiates the
        Rusanov flux too, so the kernel gates on the flux-Jacobian
        family, not on the interface flux."""
        prob = wing_problem(7, 5, 4, compressible=True)
        prob.disc.flux_scheme = "roe"
        calls = []
        kernel = kernels.rusanov_jacobian_scatter
        monkeypatch.setattr(
            kernels, "rusanov_jacobian_scatter",
            lambda *a: calls.append(a[-1]) or kernel(*a))
        self._assert_bitwise(prob.disc, self._perturbed(prob, 0.05, 61))
        assert calls == ["compiled"] * 2

    def test_subclass_keeps_numpy_assembly(self, monkeypatch):
        """A subclass may override the flux Jacobian: exact-type gate."""
        from repro.euler.incompressible import IncompressibleEuler

        class Scaled(IncompressibleEuler):
            def _flux_jacobian(self, q, s):
                return 2.0 * super()._flux_jacobian(q, s)

        prob = wing_problem(7, 5, 4)
        prob.disc.__class__ = Scaled
        monkeypatch.setattr(
            kernels, "rusanov_jacobian_scatter",
            lambda *a: pytest.fail("kernel reached for a subclass"))
        self._assert_bitwise(prob.disc, self._perturbed(prob, 0.05, 67))

    @pytest.mark.parametrize("compressible", [False, True])
    def test_boundary_heavy_tiny_box(self, compressible):
        """3 x 3 x 3 vertices: all but one on the boundary, so the
        numpy boundary closure lands on nearly every diagonal block."""
        prob = wing_problem(3, 3, 3, compressible=compressible)
        assert prob.disc.bc.vertices.size == prob.mesh.num_vertices - 1
        self._assert_bitwise(prob.disc, self._perturbed(prob, 0.1, 71))

    @settings(deadline=None, max_examples=20)
    @given(st.booleans(), st.floats(0.0, 0.3), st.integers(0, 2**16),
           st.sampled_from([0.0, -0.0, None]))
    def test_drawn_states(self, compressible, scale, seed, zero):
        """Random states, some velocity components forced to +0 / -0."""
        prob = _tiny_wing(compressible)
        q = self._perturbed(prob, scale, seed).reshape(-1, prob.disc.ncomp)
        if zero is not None:
            rng = np.random.default_rng(seed)
            q[:, 1:4][rng.random((q.shape[0], 3)) < 0.3] = zero
        self._assert_bitwise(prob.disc, q.ravel())

    def test_in_place_shift_equals_the_copy(self, wing):
        """``shifted_jacobian`` adds whole ``shift I`` blocks in place:
        bitwise the ``add_block_diagonal`` copy it replaced."""
        prob, q, jac = wing
        disc = prob.disc
        shift = disc.timestep_shift(q, 25.0)
        ref = jac.add_block_diagonal(shift[:, None, None]
                                     * np.eye(disc.ncomp)[None])
        for engine in ("numpy", "compiled"):
            disc.engine = engine
            try:
                got = disc.shifted_jacobian(q, 25.0)
            finally:
                disc.engine = "numpy"
            assert np.array_equal(_bits(got.data), _bits(ref.data))

    @pytest.mark.parametrize("bad", ["endpoint", "slot"])
    def test_bad_index_declines(self, wing, bad):
        """An endpoint outside [0, n) or a slot outside [0, nnzb) makes
        the dispatcher decline; the C symbol names the edge and writes
        nothing outside its buffers."""
        prob, q, _ = wing
        disc = prob.disc
        st_ = disc.structure
        e0, e1 = (a.copy() for a in disc.mesh.edge_endpoints())
        ij, ji = st_.edge_ij_slots.copy(), st_.edge_ji_slots.copy()
        last = e0.size // 2
        if bad == "endpoint":
            e1[last] = disc.mesh.num_vertices
        else:
            ji[last] = -1
        qq = q.reshape(-1, disc.ncomp)
        s = disc.dual.edge_normals
        assert kernels.rusanov_jacobian_scatter(
            e0, e1, ij, ji, qq, s, st_.nnzb, "incompressible", 10.0,
            "compiled") is None
        backend = kernels.backend_for("compiled")
        if backend is None:
            return
        n, nnzb, bsq = qq.shape[0], st_.nnzb, 16
        guard = 16
        sizes = (nnzb * bsq, n * bsq, n * bsq, n, n)
        bufs = [np.full(k + 2 * guard, 7.25) for k in sizes]
        outs = [b[guard:-guard] for b in bufs]
        for out in outs:
            out[:] = 0.0
        code = backend.lib.rusanov_jacobian_scatter_inc(
            e0.size, n, nnzb, *map(backend.ptr, (e0, e1, ij, ji, qq, s)),
            10.0, *(backend.ptr(o, True) for o in outs))
        assert code == last
        for b in bufs:
            assert np.all(b[:guard] == 7.25) and np.all(b[-guard:] == 7.25)


class TestBoundaryClosure:
    """The C boundary closure (``kernels.boundary_closure``) against the
    numpy closure of ``_add_boundary_residual``: bitwise, signed zeros
    and NaN included, on the whole boundary and on one SPMD rank's
    owned rows.  Every test also holds with ``REPRO_KERNELS_DISABLE=1``
    (CI runs the class twice): the dispatcher declines and the numpy
    closure is compared to itself."""

    _PROBLEMS = {}

    @classmethod
    def _problem(cls, compressible):
        """A 7 x 5 x 4 wing (110 boundary vertices, 6 of them wall) and
        rank 2 of a 3-way layout (5 wall and 35 far-field rows).  The
        box's boundary normals are nearly all axis-aligned, and with a
        zero term every order of a length-3 dot gives the same bits, so
        they are perturbed."""
        if compressible not in cls._PROBLEMS:
            prob = wing_problem(7, 5, 4, compressible=compressible)
            bc = prob.disc.bc
            bc.normals = bc.normals + 0.01 * np.random.default_rng(
                37).standard_normal(bc.normals.shape)
            labels = kway_partition(prob.mesh.vertex_graph(), 3, seed=0)
            layout = SPMDLayout.build(prob.mesh.edges, labels)
            cls._PROBLEMS[compressible] = prob, layout
        return cls._PROBLEMS[compressible]

    @staticmethod
    def _states(prob, n, seed, rows=None):
        """``n`` perturbed freestream rows with signed-zero velocity
        components, a NaN in the first of the row sets ``rows``, and a
        residual with -0.0 entries."""
        rng = np.random.default_rng(seed)
        nc = prob.disc.ncomp
        q = prob.disc.farfield_state + 0.05 * rng.standard_normal((n, nc))
        q[:, 1:4][rng.random((n, 3)) < 0.3] = -0.0
        hit = np.concatenate([rows[0], rows[2]]) if rows else ()
        if len(hit):
            q[hit[0], 0] = np.nan
        r = rng.standard_normal((n, nc))
        r[rng.random((n, nc)) < 0.3] = -0.0
        return q, r

    @staticmethod
    def _closure(disc, q, r, rows, engine):
        disc.engine = engine
        try:
            out = r.copy()
            disc._add_boundary_residual(q, out, rows)
        finally:
            disc.engine = "numpy"
        return out

    @pytest.mark.parametrize("subset", ["wall", "far", "both", "empty"])
    @pytest.mark.parametrize("where", ["global", "rank"])
    @pytest.mark.parametrize("compressible", [False, True])
    def test_bitwise_the_numpy_closure(self, compressible, where, subset):
        prob, layout = self._problem(compressible)
        disc = prob.disc
        if where == "global":
            rows, n = disc.bc.row_sets(), prob.mesh.num_vertices
        else:
            rank = layout.ranks[2]
            rows = layout.plan.boundary(disc.bc)[2]
            n = rank.n_owned + rank.ghosts.size
        empty = np.zeros(0, dtype=np.int64)
        keep = {"wall": (True, False), "far": (False, True),
                "both": (True, True), "empty": (False, False)}[subset]
        rows = (rows[:2] if keep[0] else (empty, empty)) \
            + (rows[2:] if keep[1] else (empty, empty))
        q, r = self._states(prob, n, 41 + n, rows)
        ref = self._closure(disc, q, r, rows, "numpy")
        assert np.isnan(ref).any() == (subset != "empty")
        assert np.array_equal(_bits(self._closure(disc, q, r, rows,
                                                  "compiled")), _bits(ref))
        got = r.copy()
        model = flux_family(disc)
        assert kernels.boundary_closure(
            q, got, rows, disc.bc.normals, disc.farfield_state, *model,
            "compiled") is HAS_BACKEND
        if HAS_BACKEND:
            assert np.array_equal(_bits(got), _bits(ref))

    def test_roe_disc_declines(self, monkeypatch):
        """A Roe far-field flux is not the kernel's: the closure stays
        on numpy."""
        prob = wing_problem(7, 5, 4, compressible=True)
        disc = prob.disc
        disc.flux_scheme = "roe"
        calls = []
        monkeypatch.setattr(kernels, "boundary_closure",
                            lambda *a: calls.append(a) or False)
        q, r = self._states(prob, prob.mesh.num_vertices, 43)
        rows = disc.bc.row_sets()
        ref = self._closure(disc, q, r, rows, "numpy")
        assert np.array_equal(_bits(self._closure(disc, q, r, rows,
                                                  "compiled")), _bits(ref))
        assert calls == []

    @pytest.mark.parametrize("compressible", [False, True])
    def test_out_of_range_row_declines(self, compressible):
        """A row past the end: the dispatcher declines with ``r``
        untouched and the numpy closure raises as before; the C symbol,
        on buffers with guard words, names the entry (wall entries
        first) and leaves the guards alone.  A negative normal index
        declines too, and numpy wraps it as it always has."""
        prob, _ = self._problem(compressible)
        disc = prob.disc
        n = prob.mesh.num_vertices
        q, r = self._states(prob, n, 47)
        wall_rows, wall_idx, far_rows, far_idx = (
            a.copy() for a in disc.bc.row_sets())
        far_rows[3] = n
        rows = (wall_rows, wall_idx, far_rows, far_idx)
        model = flux_family(disc)
        out = r.copy()
        assert kernels.boundary_closure(q, out, rows, disc.bc.normals,
                                        disc.farfield_state, *model,
                                        "compiled") is False
        assert np.array_equal(_bits(out), _bits(r))
        with pytest.raises(IndexError):
            self._closure(disc, q, r, rows, "compiled")
        far_rows[3], far_idx[5] = 0, -1
        ref = self._closure(disc, q, r, rows, "numpy")
        assert np.array_equal(_bits(self._closure(disc, q, r, rows,
                                                  "compiled")), _bits(ref))
        backend = kernels.backend_for("compiled")
        if backend is None:
            return
        far_rows[3], far_idx[5] = n, 0
        rbuf, rv = _guarded(r)
        fn = (backend.lib.boundary_closure_comp if compressible
              else backend.lib.boundary_closure_inc)
        code = fn(n, disc.bc.normals.shape[0], wall_rows.size,
                  *map(backend.ptr, (wall_rows, wall_idx)), far_rows.size,
                  *map(backend.ptr, (far_rows, far_idx,
                                     np.ascontiguousarray(q),
                                     disc.bc.normals, disc.farfield_state)),
                  model[1], backend.ptr(rv, True))
        assert code == wall_rows.size + 3
        assert _guards_intact(rbuf)
        assert np.array_equal(_bits(rv), _bits(r.ravel()))


_TINY_WINGS = {}


def _tiny_wing(compressible):
    """One 4 x 3 x 3 wing per family for the drawn-state test."""
    if compressible not in _TINY_WINGS:
        _TINY_WINGS[compressible] = wing_problem(4, 3, 3,
                                                 compressible=compressible)
    return _TINY_WINGS[compressible]


def _guarded(values, guard=16, fill=7.25):
    """``values`` copied into the middle of a buffer of guard words:
    ``(buffer, view)``; the view is what a kernel may touch."""
    values = np.asarray(values)
    buf = np.full(values.size + 2 * guard, fill, dtype=values.dtype)
    view = buf[guard:guard + values.size]
    view[:] = values.ravel()
    return buf, view


def _guards_intact(buf, guard=16, fill=7.25):
    return bool(np.all(buf[:guard] == fill) and np.all(buf[-guard:] == fill))


class TestIndexGuards:
    """Matrix kernels range-check every index they dereference — a
    column, a row pointer, a row id, a segment id, a block slot — with
    one unsigned compare in the loop that loads it.  On a bad one the
    dispatcher declines and the numpy path raises what it raises; the C
    symbol, run on buffers with guard words either side, names the
    offending row (block) and leaves the guards alone."""

    def test_spmv_bsr_bad_column_raises_like_numpy(self):
        a = BSRMatrix(indptr=[0, 2, 3], indices=[0, 5, 1],
                      data=np.ones((3, 4, 4)), nbcols=2, engine="compiled")
        x = np.arange(8.0)
        assert kernels.spmv_bsr(a.indptr, a.indices, a.data, x, 2, 2,
                                "compiled") is None
        with pytest.raises(IndexError):
            a.matvec(x)

    @pytest.mark.parametrize("size", [4, 12])
    def test_spmv_bsr_wrong_length_x_raises_like_numpy(self, size):
        """An ``x`` of whole block rows, but not ``nbcols`` of them: the
        compiled SpMV declines (it would read past or short of ``x``)
        and the matvec raises numpy's ``ValueError``."""
        a = BSRMatrix(indptr=[0, 1, 2], indices=[0, 1],
                      data=np.ones((2, 4, 4)), nbcols=2, engine="compiled")
        x = np.arange(float(size))
        assert kernels.spmv_bsr(a.indptr, a.indices, a.data, x, 2, 2,
                                "compiled") is None
        with pytest.raises(ValueError):
            a.matvec(x)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_lower_solve_bsr_bad_column_raises_like_numpy(self, dtype):
        indptr, indices = np.array([0, 0, 1]), np.array([7])
        data = np.ones((1, 4, 4), dtype=dtype)
        b = np.arange(8.0)
        solve = kernels.trisolver(indptr, indices, data, None, 4,
                                  kernels.backend_for("compiled"))
        assert solve is None if not HAS_BACKEND else solve(b.copy()) is False
        levels = [np.array([0]), np.array([1])]
        with pytest.raises(IndexError):
            lower_solve_blocks(indptr, indices, data, b, levels, 4)

    def test_trisolve_decline_restarts_from_the_rhs(self, wing,
                                                    monkeypatch):
        """A C solve that declines after solving rows in place: the
        factor's numpy fallback starts from ``b`` again, not from those
        rows."""
        fac = ilu_bsr(wing[2], 0, engine="compiled")
        b = np.random.default_rng(3).standard_normal(wing[2].shape[0])
        ref = replace(fac, engine="numpy").solve(b)

        def partial(indptr, indices, data, inv_diag, bs, backend):
            def solve(x):
                x[:] = -1.0          # rows solved, then an index declined
                return False
            return solve

        monkeypatch.setattr(kernels, "trisolver", partial)
        assert np.array_equal(fac.solve(b), ref)

    @staticmethod
    def _trisolve_case(kind, bad):
        """``(symbol, args, guarded_buffers, offending_row)`` for one
        trisolve symbol on 3 rows with one bad index: ``bad`` is a
        column ``"past_end"`` (3) or ``"negative"`` (-1), or a
        ``"row_pointer"`` past the entry count."""
        name, _, bs = kind.partition(":")           # symbol:bs
        bs = int(bs)
        blk = (bs, bs)
        lower = name.startswith("lower")
        # L: row 2 holds (0, col); U: row 0 holds (1, col), solved last
        indptr = [0, 0, 1, 3] if lower else [0, 2, 3, 3]
        col, row = {"past_end": (3, 2 if lower else 0),
                    "negative": (-1, 2 if lower else 0),
                    "row_pointer": (1 if lower else 2, 2)}[bad]
        if bad == "row_pointer":
            indptr[-1] = 99
        indices = [0, 0, col] if lower else [1, col, 2]
        dtype = np.float32 if name.endswith("f32") else np.float64
        rng = np.random.default_rng(83)
        data = rng.standard_normal((3,) + blk).astype(dtype)
        xbuf, x = _guarded(rng.standard_normal(3 * bs))
        args = [3, bs, 3, np.array(indptr, dtype=np.int64),
            np.array(indices, dtype=np.int64), data]
        if not lower:
            args.append(rng.standard_normal((3,) + blk).astype(dtype))
        return name, args + [x], [xbuf], row

    @staticmethod
    def _spmv_case(kind, bad):
        """As :meth:`_trisolve_case` for the SpMV symbols: 2 output rows
        over 4 columns; the bad index sits in output row 1 (``-rows``:
        the second row id; ``gather``: block 2 of 3, in ``cols`` or
        ``seg``)."""
        rng = np.random.default_rng(89)
        bs = 3
        past_end = {"cols": 4, "seg": 2}
        x = rng.standard_normal(4 * bs)
        indptr = np.array([0, 1, 99 if bad == "row_pointer" else 3])
        indices = np.array([0, 1, 4 if bad == "past_end" else
                            -1 if bad == "negative" else 2])
        if kind.startswith("gather"):
            which = kind.split("-")[1]
            index = {"cols": np.array([0, 1, 2]), "seg": np.array([0, 1, 1])}
            index[which][2] = past_end[which] if bad == "past_end" else -1
            ybuf, y = _guarded(np.zeros(2 * bs))
            return "gather_spmv_bsr_f64", [
                3, bs, 4, 2, index["cols"], index["seg"],
                rng.standard_normal((3, bs, bs)), x, y], [ybuf], 2
        ybuf, y = _guarded(np.zeros(2 * bs))
        return kind, [2, bs, 4, 3, indptr, indices,
                      rng.standard_normal((3, bs, bs)), x, y], [ybuf], 1

    TRISOLVES = [f"{side}_solve_bsr_{p}:{bs}"
                 for side in ("lower", "upper") for bs in (2, 4, 5)
                 for p in ("f64", "f32")]
    ROWWISE = TRISOLVES + ["spmv_bsr_f64"]
    GATHERS = ["gather_spmv_bsr_f64-cols", "gather_spmv_bsr_f64-seg"]

    @needs_backend
    @pytest.mark.parametrize("kind, bad", [
        (k, b) for k in ROWWISE for b in ("past_end", "negative",
                                          "row_pointer")]
        + [(k, b) for k in GATHERS for b in ("past_end", "negative")])
    def test_symbol_names_the_row_and_keeps_the_guards(self, kind, bad):
        name, args, bufs, row = (self._trisolve_case(kind, bad)
                                 if kind in self.TRISOLVES
                                 else self._spmv_case(kind, bad))
        args = [np.asarray(a, dtype=np.int64)
                if isinstance(a, np.ndarray) and a.dtype.kind == "i" else a
                for a in args]
        backend = kernels.backend_for("compiled")

        def ptr(a):
            if not isinstance(a, np.ndarray):
                return a
            return backend.ptr(a, out=a.dtype == np.float64)

        assert getattr(backend.lib, name)(*map(ptr, args)) == row
        assert all(_guards_intact(b) for b in bufs)


    @staticmethod
    def _seq_case(which, bad):
        """``(args, guarded_buffers)`` of ``seq_matvec_bsr_f64`` on a
        4-vertex path split over 2 ranks, with one bad index in rank 1's
        part of ``which`` (``home``: vertex 0's row).  Rank 1's ``cols``
        end at its own rows and its ``seg`` at its owned rows, which are
        inside the buffer and ``y``."""
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        layout = SPMDLayout.build(edges, np.array([0, 0, 1, 1]))
        plan = layout.plan
        bs = 3
        pairs = np.concatenate([edges, edges[:, ::-1],
                                np.repeat(np.arange(4), 2).reshape(-1, 2)])
        rng = np.random.default_rng(97)
        a = BSRMatrix.from_block_coo(
            pairs[:, 0], pairs[:, 1],
            rng.standard_normal((pairs.shape[0], bs, bs)), (4, 4))
        g = plan.gather(a)
        ints = {"home": plan.home.copy(), "ghost_src": plan.ghost_src.copy(),
                "flat": g.flat.copy(), "cols": g.cols.copy(),
                "seg": g.seg.copy()}
        past_end = {"home": plan.total_rows, "ghost_src": plan.total_rows,
                    "flat": a.nnzb, "cols": plan.row_off[2] - plan.row_off[1],
                    "seg": layout.ranks[1].n_owned}
        ints[which][0 if which == "home" else -1] = (
            past_end[which] if bad == "past_end" else -1)
        bufs = [_guarded(np.zeros(n)) for n in (plan.total_rows * bs,
                                                plan.total_rows * bs,
                                                4 * bs, 4)]
        args = [2, bs, 4, plan.total_rows, plan.ghost_src.size, a.nnzb,
                a.nnzb, ints["home"], plan.row_off, plan.ghost_off,
                ints["ghost_src"], g.blk_off, ints["flat"], ints["cols"],
                ints["seg"], a.data, rng.standard_normal(4 * bs),
                *(view for _, view in bufs)]
        return args, [buf for buf, _ in bufs]

    @needs_backend
    @pytest.mark.parametrize("which", ["home", "ghost_src", "flat", "cols",
                                       "seg"])
    @pytest.mark.parametrize("bad", ["past_end", "negative"])
    def test_seq_matvec_names_the_rank_and_keeps_the_guards(self, which,
                                                            bad):
        """The seq matvec reports the rank whose ghost sources or blocks
        hold the bad index (2, the rank count, for a home row)."""
        args, bufs = self._seq_case(which, bad)
        backend = kernels.backend_for("compiled")
        ptrs = [backend.ptr(a, out=a.dtype == np.float64)
                if isinstance(a, np.ndarray) else a for a in args]
        assert backend.lib.seq_matvec_bsr_f64(*ptrs) == (
            2 if which == "home" else 1)
        assert all(_guards_intact(b) for b in bufs)


def _sequential_lower(indptr, indices, data, b, bs):
    """The compiled block lower solve's loop in Python floats (IEEE
    double, no FMA): what every block size must compute bitwise."""
    x = np.array(b, dtype=np.float64).reshape(-1, bs)
    for i in range(x.shape[0]):
        acc = [0.0] * bs
        for t in range(indptr[i], indptr[i + 1]):
            blk, xj = data[t], x[indices[t]]
            for r in range(bs):
                p = 0.0
                for c in range(bs):
                    p += float(blk[r, c]) * float(xj[c])
                acc[r] += p
        for r in range(bs):
            x[i, r] -= acc[r]
    return x.ravel()


def _sequential_upper(indptr, indices, data, inv_diag, b, bs):
    x = np.array(b, dtype=np.float64).reshape(-1, bs)
    for i in range(x.shape[0] - 1, -1, -1):
        acc = [0.0] * bs
        for t in range(indptr[i], indptr[i + 1]):
            blk, xj = data[t], x[indices[t]]
            for r in range(bs):
                p = 0.0
                for c in range(bs):
                    p += float(blk[r, c]) * float(xj[c])
                acc[r] += p
        rhs = [float(x[i, r]) - acc[r] for r in range(bs)]
        for r in range(bs):
            p = 0.0
            for c in range(bs):
                p += float(inv_diag[i][r, c]) * rhs[c]
            x[i, r] = p
    return x.ravel()


class TestBlockTrisolves:
    """Block size 4 and 5 run constant-size copies of the trisolve
    loop, any other size the generic loop (3, 6, 9 and 12 here: a
    vector tail, none, more than one vector of rows): every size is
    normwise the numpy oracle and bitwise the sequential loop."""

    @staticmethod
    def _triangle(n, bs, dtype, upper, seed):
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(n):
            pool = np.arange(i + 1, n) if upper else np.arange(i)
            k = min(pool.size, int(rng.integers(0, 5)))
            rows.append(np.sort(rng.choice(pool, k, replace=False)))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([r.size for r in rows], out=indptr[1:])
        indices = np.concatenate(rows).astype(np.int64)
        data = (0.2 * rng.standard_normal((indices.size, bs, bs))
                ).astype(dtype)
        inv = (np.eye(bs) + 0.1 * rng.standard_normal((n, bs, bs))
               ).astype(dtype)
        return indptr, indices, data, inv

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bs", [2, 3, 4, 5, 6, 9, 12])
    def test_lower_and_upper(self, bs, dtype):
        n = 30
        b = np.random.default_rng(bs).standard_normal(n * bs)
        li, lx, ld, _ = self._triangle(n, bs, dtype, False, 97 + bs)
        ui, ux, ud, inv = self._triangle(n, bs, dtype, True, 101 + bs)
        backend = kernels.backend_for("compiled")
        solves = (kernels.trisolver(li, lx, ld, None, bs, backend),
                  kernels.trisolver(ui, ux, ud, inv, bs, backend))
        if not HAS_BACKEND:
            assert solves == (None, None)
            return
        lower, upper = b.copy(), b.copy()
        assert solves[0](lower) and solves[1](upper)
        assert_norm_close(lower, lower_solve_blocks(
            li, lx, ld, b, level_schedule(li, lx), bs))
        assert_norm_close(upper, upper_solve_blocks_inplace(
            ui, ux, ud, inv, b.copy(), level_schedule(ui, ux, reverse=True),
            bs))
        assert np.array_equal(lower, _sequential_lower(li, lx, ld, b, bs))
        assert np.array_equal(upper,
                              _sequential_upper(ui, ux, ud, inv, b, bs))


def _sequential_spmv(indptr, indices, data, x):
    """The compiled SpMVs' order in numpy: each block row's sum is 0.0
    plus its column products in ascending ``c`` (one elementwise pass
    per column), and the blocks go into ``y`` in slot order
    (``np.add.at`` is unbuffered, so sequential per target)."""
    bs = data.shape[1]
    xb = np.asarray(x, dtype=np.float64).reshape(-1, bs)[indices]
    p = np.zeros((indices.size, bs))
    for c in range(bs):
        p += data[:, :, c] * xb[:, c, None]
    y = np.zeros((indptr.size - 1, bs))
    np.add.at(y, np.repeat(np.arange(indptr.size - 1), np.diff(indptr)), p)
    return y.ravel()


@needs_backend
class TestBlockSpMVs:
    """Block size 4 and 5 run constant-size copies of the SpMV loops:
    the global SpMV and the seq matvec (one C call over every rank)
    compute the sequential-order recomputation bit for bit, an fp32
    ``x`` widened exactly and the seq result rounded back to fp32."""

    @settings(deadline=None, max_examples=30)
    @given(bs=st.sampled_from((4, 5)), f32=st.booleans(),
           n=st.integers(2, 40), nparts=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_equal_the_sequential_order(self, bs, f32, n, nparts, seed):
        rng = np.random.default_rng(seed)
        edges = np.unique(np.sort(rng.integers(0, n, (3 * n, 2)), 1),
                          axis=0)
        edges = edges[edges[:, 0] != edges[:, 1]]
        pairs = np.concatenate([edges, edges[:, ::-1],
                                np.repeat(np.arange(n), 2).reshape(-1, 2)])
        a = BSRMatrix.from_block_coo(
            pairs[:, 0], pairs[:, 1],
            rng.standard_normal((pairs.shape[0], bs, bs)), (n, n))
        a.engine = "compiled"
        layout = SPMDLayout.build(edges, rng.integers(0, nparts, n))
        x = rng.standard_normal(n * bs).astype(
            np.float32 if f32 else np.float64)
        want = _sequential_spmv(a.indptr, a.indices, a.data, x)
        assert np.array_equal(a.matvec(x), want)
        seq = distributed_matvec(a, layout, x)
        assert seq.dtype == x.dtype
        assert np.array_equal(seq, want.astype(x.dtype))

    @settings(deadline=None, max_examples=30)
    @given(bs=st.sampled_from((3, 4, 5)), nblocks=st.integers(1, 60),
           n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_rank_spmv_in_any_segment_order(self, bs, nblocks, n, seed):
        """The rank SpMV keeps a row's running sum in registers while
        consecutive blocks add into it; blocks whose rows come back in
        any order still add into ``y`` in block order."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((nblocks, bs, bs))
        cols = rng.integers(0, n, nblocks)
        seg = rng.integers(0, n, nblocks)
        x = rng.standard_normal(n * bs)
        p = np.zeros((nblocks, bs))
        for c in range(bs):
            p += data[:, :, c] * x.reshape(n, bs)[cols][:, c, None]
        want = np.zeros((n, bs))
        np.add.at(want, seg, p)
        got = kernels.gather_spmv_bsr(data, cols, seg, x, n, "compiled")
        assert np.array_equal(got, want)


class TestColumnMajorFactors:
    """A compiled block factor keeps ``[r, c]`` blocks that are
    transposed views of the column-major buffers C wrote (or, where the
    C numeric declined, that ``ilu_bsr`` stored so), and the C
    trisolves read those buffers in place; a row-major factor is solved
    through a column-major copy, made once, on its first solve."""

    @staticmethod
    def _spy(monkeypatch, backend):
        """Record the block arrays the C block solves get pointers to:
        L's blocks, then U's and the pivot inverses."""
        seen = []

        def spy(a, out=False, _ptr=backend.ptr):
            if a.ndim == 3:
                seen.append(a)
            return _ptr(a, out)
        monkeypatch.setattr(backend, "ptr", spy)
        return seen

    @needs_backend
    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    def test_compiled_factor_is_read_in_place(self, wing, monkeypatch,
                                              storage):
        jac = wing[2]
        fac = ilu_bsr(jac, 1, engine="compiled", storage_dtype=storage)
        blocks = (fac.l_data, fac.u_data, fac.inv_diag)
        assert all(m.transpose(0, 2, 1).flags.c_contiguous for m in blocks)
        seen = self._spy(monkeypatch, kernels.backend_for("compiled"))
        b = np.random.default_rng(5).standard_normal(jac.shape[0])
        x = fac.solve(b)
        assert len(seen) == 3
        assert all(np.shares_memory(p, m) for p, m in zip(seen, blocks))
        assert np.array_equal(fac.solve(b), x)
        assert len(seen) == 3            # checked once, on the first solve
        assert fac.solve_levels is None

        seen.clear()
        rows = replace(fac, **{name: np.ascontiguousarray(m) for name, m in
                               zip(("l_data", "u_data", "inv_diag"), blocks)})
        assert np.array_equal(rows.solve(b), x)
        assert len(seen) == 3
        for p, m in zip(seen, (rows.l_data, rows.u_data, rows.inv_diag)):
            assert p.flags.c_contiguous and not np.shares_memory(p, m)
            assert np.array_equal(p, m.transpose(0, 2, 1))
        assert np.array_equal(rows.solve(b), x)
        assert len(seen) == 3            # the copy is made once
        assert rows.solve_levels is None

    @needs_backend
    def test_numpy_numeric_of_a_compiled_factor_is_column_major(
            self, wing, monkeypatch):
        import repro.sparse.ilu as ilu_mod
        jac = wing[2]
        want = ilu_bsr(jac, 1, engine="compiled")
        monkeypatch.setattr(ilu_mod._kernels, "ilu_numeric",
                            lambda *args, **kwargs: None)
        fac = ilu_bsr(jac, 1, engine="compiled")
        blocks = (fac.l_data, fac.u_data, fac.inv_diag)
        assert all(m.transpose(0, 2, 1).flags.c_contiguous for m in blocks)
        # a refresh of it runs the numpy numeric too, into its storage
        cold = [m.copy() for m in blocks]
        assert ilu_bsr(jac, into=fac) is fac
        assert all(np.array_equal(m, c) for m, c in zip(blocks, cold))
        seen = self._spy(monkeypatch, kernels.backend_for("compiled"))
        b = np.random.default_rng(6).standard_normal(jac.shape[0])
        x = fac.solve(b)
        assert len(seen) == 3
        assert all(np.shares_memory(p, m) for p, m in zip(seen, blocks))
        assert_norm_close(x, want.solve(b))


LIMITERS = ("none", "van_albada", "minmod")

#: flux family -> (flux, wavespeed, parameter keyword, a dyadic
#: freestream state): what the fused kernel's numpy composition needs;
#: the compressible flux takes no keyword, its parameter is ``GAMMA``
FAMILIES = {
    "incompressible": (incompressible_flux, incompressible_wavespeed,
                       {"beta": 10.0}, [0.25, 1.0, 0.125, 0.0625]),
    "compressible": (compressible_flux, compressible_wavespeed,
                     {}, [1.0, 0.5, 0.125, 0.0625, 2.5]),
}


def _fused(mesh, dual, q, grad, limiter, family):
    """``muscl_rusanov_scatter`` as ``residual`` calls it; None when
    the dispatcher declines."""
    param = FAMILIES[family][2].get("beta", GAMMA)
    out = kernels.muscl_rusanov_scatter(
        *mesh.edge_endpoints(), q, grad, mesh.coords, dual.edge_normals,
        limiter, family, param, "compiled")
    return None if out is None else out[0] - out[1]


def _composition(mesh, dual, q, grad, limiter, family):
    """The numpy oracle of the fused kernel: reconstruction, Rusanov
    face flux, one segment_sum per endpoint."""
    flux, wavespeed, kw, _ = FAMILIES[family]
    ql, qr = reconstruct_edge_states(mesh, dual, q, grad, limiter)
    f = rusanov_flux(ql, qr, dual.edge_normals, flux, wavespeed, **kw)
    n = mesh.num_vertices
    return (segment_sum(mesh.edges[:, 0], f, n)
            - segment_sum(mesh.edges[:, 1], f, n))


def _kinked_case(family):
    """``(mesh, dual, q, grad)`` on the 5x5x5 box, whose coordinates
    are multiples of 1/4, so that the slope pair (one-sided ``sl``,
    central ``dq``) of the limiters is, by region in x:

    * x <= 1/4: ``q`` linear with dyadic coefficients and ``grad`` its
      exact gradient — every product and sum is exact, ``sl == dq``: a
      tie in magnitude;
    * x == 1/2: ``q`` constant, ``grad`` zero — both slopes vanish
      exactly;
    * x >= 3/4: random ``q`` against an unrelated random ``grad`` —
      slopes of either sign and either order of magnitude.
    """
    mesh = box_mesh(5, 5, 5)
    dual = compute_dual_metrics(mesh)
    base = np.array(FAMILIES[family][3])
    x = mesh.coords
    rng = np.random.default_rng(43)
    lin = rng.integers(-4, 5, (base.size, 3)) / 64.0
    q = base + x @ lin.T
    grad = np.broadcast_to(lin, (mesh.num_vertices,) + lin.shape).copy()
    flat = x[:, 0] == 0.5
    q[flat], grad[flat] = base, 0.0
    rough = x[:, 0] >= 0.75
    q[rough] = base + 0.03 * rng.standard_normal((rough.sum(), base.size))
    grad[rough] = 0.2 * rng.standard_normal((rough.sum(), base.size, 3))
    return mesh, dual, q, grad


class TestSecondOrderKernels:
    """The compiled second-order residual: a bitwise gradient pass and
    a normwise fused MUSCL + Rusanov + scatter pass.  Every test also
    holds with ``REPRO_KERNELS_DISABLE=1`` (CI runs the class twice):
    the dispatchers decline and the numpy tier is compared to itself.
    """

    #: bound of the fused pass, fixed before measuring (measured: 7e-16)
    BOUND = 64 * np.finfo(np.float64).eps

    # -- (a) pass 1: gradients, bitwise --------------------------------
    @staticmethod
    def _assert_gradients_bitwise(mesh, dual, ncomp, seed):
        q = np.random.default_rng(seed).standard_normal(
            (mesh.num_vertices, ncomp))
        got = kernels.green_gauss(
            *mesh.edge_endpoints(), q, dual.edge_normals,
            dual.bnd_vertex_normals, dual.dual_volumes, "compiled")
        assert (got is None) == (not HAS_BACKEND)
        assert np.array_equal(
            green_gauss_gradients(mesh, dual, q, engine="compiled"),
            green_gauss_gradients(mesh, dual, q))

    @pytest.mark.parametrize("ncomp", [1, 2, 4, 5])
    def test_green_gauss_bitwise_on_wing(self, wing, ncomp):
        prob = wing[0]
        self._assert_gradients_bitwise(prob.mesh, prob.disc.dual, ncomp, 47)

    @settings(deadline=None, max_examples=12)
    @given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 4),
           st.sampled_from(["sorted", "colored", "random"]),
           st.sampled_from([1, 2, 4, 5]), st.integers(0, 2**16))
    def test_green_gauss_bitwise_on_boxes(self, nx, ny, nz, ordering, ncomp,
                                          seed):
        mesh = apply_orderings(box_mesh(nx, ny, nz, jitter=0.2, seed=seed),
                               edge=ordering, seed=seed)
        self._assert_gradients_bitwise(mesh, compute_dual_metrics(mesh),
                                       ncomp, seed)

    # -- (b) pass 2: reconstruction + flux + scatter, normwise ----------
    def _assert_fused_within_bound(self, mesh, dual, q, grad, limiter,
                                   family):
        ref = _composition(mesh, dual, q, grad, limiter, family)
        got = _fused(mesh, dual, q, grad, limiter, family)
        assert (got is None) == (not HAS_BACKEND)
        if got is not None:
            assert (np.linalg.norm(got - ref)
                    <= self.BOUND * np.linalg.norm(ref))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("limiter", LIMITERS)
    def test_fused_pass_on_smooth_state(self, wing, limiter, family):
        mesh, dual = wing[0].mesh, wing[0].disc.dual
        base = np.array(FAMILIES[family][3])
        x = mesh.coords
        q = base + 0.05 * np.sin(3.0 * x @ np.ones((3, base.size))
                                 + np.arange(base.size))
        grad = green_gauss_gradients(mesh, dual, q)
        self._assert_fused_within_bound(mesh, dual, q, grad, limiter, family)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("limiter", LIMITERS)
    def test_fused_pass_on_every_limiter_branch(self, limiter, family):
        mesh, dual, q, grad = _kinked_case(family)
        # the state really walks the branches a smooth wing never leaves
        e0, e1 = mesh.edge_endpoints()
        dq = q[e1] - q[e0]
        dx = mesh.coords[e1] - mesh.coords[e0]
        sl = 2.0 * np.einsum("ecx,ex->ec", grad[e0], dx) - dq
        assert np.any((sl == dq) & (dq != 0.0))           # tie
        assert np.any((sl == 0.0) & (dq == 0.0))          # both vanish
        assert np.any(sl * dq < 0.0)                      # signs disagree
        agree = sl * dq > 0.0
        assert np.any(agree & (np.abs(sl) < np.abs(dq)))
        assert np.any(agree & (np.abs(sl) > np.abs(dq)))
        self._assert_fused_within_bound(mesh, dual, q, grad, limiter, family)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("limiter", LIMITERS)
    @pytest.mark.parametrize("ne", [0, 1, EDGE_BLOCK - 1, EDGE_BLOCK,
                                    EDGE_BLOCK + 1, 3 * EDGE_BLOCK + 17])
    def test_flux_kernels_on_every_block_tail(self, ne, limiter, family):
        """Edge counts around the C flux kernels' block: none, one, a
        block short of full, a full block, one past it and a ragged
        tail; ``ne`` edges drawn from the kinked box, so every limiter
        branch is in play.  Both blocked kernels, the fused pass and
        the first-order scatter of the numpy edge states, stay within
        the bound of their numpy composition."""
        mesh, dual, q, grad = _kinked_case(family)
        pick = np.random.default_rng(ne).permutation(len(mesh.edges))[:ne]
        mesh = Mesh(coords=mesh.coords, tets=mesh.tets,
                    edges=mesh.edges[pick])
        dual = replace(dual, edge_normals=dual.edge_normals[pick])
        self._assert_fused_within_bound(mesh, dual, q, grad, limiter, family)
        flux, wavespeed, kw, _ = FAMILIES[family]
        ql, qr = reconstruct_edge_states(mesh, dual, q, grad, limiter)
        f = rusanov_flux(ql, qr, dual.edge_normals, flux, wavespeed, **kw)
        e0, e1 = mesh.edge_endpoints()
        n = mesh.num_vertices
        ref = segment_sum(e0, f, n) - segment_sum(e1, f, n)
        got = kernels.rusanov_scatter(e0, e1, ql, qr, dual.edge_normals, n,
                                      family, kw.get("beta", GAMMA),
                                      "compiled")
        assert (got is None) == (not HAS_BACKEND)
        if got is not None:
            assert (np.linalg.norm(got[0] - got[1] - ref)
                    <= self.BOUND * np.linalg.norm(ref))

    # -- (c) declines run exactly the numpy tier -------------------------
    @staticmethod
    def _residuals(disc, q):
        """(numpy-tier, compiled-tier) second-order residual."""
        assert disc.engine == "numpy"
        ref = disc.residual(q, second_order=True)
        disc.engine = "compiled"
        try:
            return ref, disc.residual(q, second_order=True)
        finally:
            disc.engine = "numpy"

    def test_fp32_state_declines(self, wing, monkeypatch):
        """Neither pass takes a non-fp64 state: the gradients and the
        reconstruction run in numpy, as they did before the kernels
        existed (the fp64 edge states they produce still reach the
        first-order ``rusanov_scatter``, so the value is normwise, not
        bitwise, the numpy tier's)."""
        prob, q, _ = wing
        mesh, dual = prob.mesh, prob.disc.dual
        q32 = q.astype(np.float32)
        grad = green_gauss_gradients(mesh, dual, q32.reshape(-1, 4))
        assert kernels.green_gauss(
            *mesh.edge_endpoints(), q32.reshape(-1, 4), dual.edge_normals,
            dual.bnd_vertex_normals, dual.dual_volumes, "compiled") is None
        assert _fused(mesh, dual, q32.reshape(-1, 4), grad, "van_albada",
                      "incompressible") is None
        calls = []
        monkeypatch.setattr(
            discretization, "reconstruct_edge_states",
            lambda *a: calls.append(1) or reconstruct_edge_states(*a))
        ref, got = self._residuals(prob.disc, q32)
        assert len(calls) == 2      # the numpy tier and the declined one
        assert_norm_close(got, ref)

    def test_roe_keeps_numpy_reconstruction(self, monkeypatch):
        """Roe is not a flux the fused kernel mirrors: compiled
        gradients (bitwise), numpy reconstruction + Roe flux, compiled
        scatter (bitwise) — the numpy-tier value, as before the fused
        kernel existed."""
        prob = wing_problem(7, 5, 4, compressible=True)
        prob.disc.flux_scheme = "roe"
        monkeypatch.setattr(
            kernels, "muscl_rusanov_scatter",
            lambda *a, **k: pytest.fail("fused kernel reached under Roe"))
        q = prob.initial.flat() * (1.0 + 0.01 * np.random.default_rng(
            53).standard_normal(prob.disc.num_unknowns))
        ref, got = self._residuals(prob.disc, q)
        assert np.array_equal(got, ref)

    def test_bare_machine_is_bitwise_numpy(self, wing, bare_machine):
        prob, q, _ = wing
        ref, got = self._residuals(prob.disc, q)
        assert np.array_equal(got, ref)

    def test_disable_env_is_bitwise_numpy(self, wing, monkeypatch):
        prob, q, _ = wing
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "1")
        capability.invalidate()
        try:
            ref, got = self._residuals(prob.disc, q)
        finally:
            monkeypatch.delenv("REPRO_KERNELS_DISABLE")
            capability.invalidate()
        assert np.array_equal(got, ref)

    def test_engine_flip_on_live_discretisation(self, wing, monkeypatch):
        """``benchmarks/e2e/oracle.py`` flips ``disc.engine`` on a live
        discretisation: dispatch is per call, so the very next
        residual runs the tier it names."""
        prob, q, _ = wing
        calls = []
        fused = kernels.muscl_rusanov_scatter
        monkeypatch.setattr(
            kernels, "muscl_rusanov_scatter",
            lambda *a: calls.append(a[-1]) or fused(*a))
        disc = prob.disc
        ref = disc.residual(q)
        assert calls == []
        disc.engine = "compiled"
        try:
            got = disc.residual(q)
            assert calls == ["compiled"]
            disc.engine = "numpy"
            assert np.array_equal(disc.residual(q), ref)
            assert calls == ["compiled"]
            disc.engine = "compiled"
            assert np.array_equal(disc.residual(q), got)
            assert calls == ["compiled"] * 2
        finally:
            disc.engine = "numpy"

    # -- (d) a gate that is not self-comparison --------------------------
    @pytest.mark.parametrize("compressible", [False, True])
    @pytest.mark.parametrize("limiter", LIMITERS)
    def test_freestream_preservation(self, limiter, compressible):
        """A uniform state has no gradient and every dual volume is
        closed, so the interior residual of the freestream is zero in
        exact arithmetic whatever the limiter does: what is left is
        rounding against the size of one face flux."""
        prob = wing_problem(13, 9, 7, limiter=limiter,
                            compressible=compressible)
        disc = prob.disc
        disc.engine = "compiled"
        r = disc.residual(prob.initial.flat()).reshape(-1, disc.ncomp)
        interior = np.ones(prob.mesh.num_vertices, dtype=bool)
        interior[disc.bc.vertices] = False
        scale = np.abs(disc._flux(prob.initial.q[prob.mesh.edges[:, 0]],
                                  disc.dual.edge_normals)).max()
        assert interior.sum() > 300
        assert np.abs(r[interior]).max() <= 1e-12 * scale


class TestRowDotOracle:
    """_row_dot/_row_dot_blocks against explicit per-row accumulation."""

    @staticmethod
    def _csr(n, seed, dtype=np.float64):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 6, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = rng.integers(0, n, indptr[-1]).astype(np.int64)
        data = rng.standard_normal(indptr[-1]).astype(dtype)
        return indptr, indices, data

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_dot_matches_sequential_loop(self, dtype):
        n = 40
        indptr, indices, data = self._csr(n, 23, dtype)
        rng = np.random.default_rng(29)
        x = rng.standard_normal(n)
        rows = np.arange(0, n, 3, dtype=np.int64)
        ref = np.zeros(rows.size)
        for k, i in enumerate(rows):
            acc = 0.0
            for t in range(indptr[i], indptr[i + 1]):
                acc += float(data[t]) * x[indices[t]]
            ref[k] = acc
        got = _row_dot(indptr, indices, data, x, rows)
        assert np.array_equal(got, ref)

    def test_row_dot_blocks_matches_sequential_loop(self):
        n, bs = 20, 3
        rng = np.random.default_rng(31)
        counts = rng.integers(0, 4, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = rng.integers(0, n, indptr[-1]).astype(np.int64)
        data = rng.standard_normal((indptr[-1], bs, bs))
        x = rng.standard_normal((n, bs))
        rows = np.arange(1, n, 2, dtype=np.int64)
        ref = np.zeros((rows.size, bs))
        for k, i in enumerate(rows):
            for t in range(indptr[i], indptr[i + 1]):
                ref[k] += data[t] @ x[indices[t]]
            # matmul accumulation order differs from einsum's: normwise.
        got = _row_dot_blocks(indptr, indices, data, x, rows, bs)
        assert_norm_close(got, ref)

    def test_empty_rows(self):
        indptr = np.zeros(5, dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)
        data = np.empty(0)
        rows = np.arange(4, dtype=np.int64)
        got = _row_dot(indptr, indices, data, np.ones(4), rows)
        assert np.array_equal(got, np.zeros(4))


@needs_backend
class TestBackendPresent:
    """On this host a backend exists: the compiled path must actually
    run (returning arrays, not the None/False fallback signal)."""

    def test_backend_resolves(self):
        assert capability.resolve_engine("compiled") == "c"
        assert kernels.backend_for("compiled") is not None

    def test_dispatch_returns_result(self):
        e0 = np.array([0, 1, 1], dtype=np.int64)
        e1 = np.array([1, 2, 0], dtype=np.int64)
        w = 1.0 + np.arange(12, dtype=np.float64).reshape(3, 4)
        s = np.ones((3, 3))
        out = kernels.rusanov_scatter(e0, e1, w, 2.0 * w, s, 3,
                                      "incompressible", 10.0, "compiled")
        assert out is not None
        a, b = out
        assert a.shape == b.shape == (3, 4)


def _solver_cfg(engine, executor="local", max_steps=3):
    """Branch-free config: fixed Krylov work (rtol=0 runs every
    iteration), unreachable target, no order switching — so the only
    engine-visible difference is ULP-level block-kernel rounding."""
    return SolverConfig(
        ptc=PTCConfig(cfl0=10.0),
        max_steps=max_steps,
        target_reduction=1e-300,
        matrix_free=True,
        jacobian_lag=2,
        krylov=KrylovConfig(rtol=0.0, max_iterations=6),
        precond=PreconditionerConfig(nparts=2, fill_level=1),
        executor=executor,
        engine=engine,
    )


def _run(prob, cfg):
    solver = NKSSolver(prob.disc, cfg)
    try:
        report = solver.solve(prob.initial.flat())
    finally:
        prob.disc.engine = "numpy"    # solver mutated the shared disc
    return report


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("executor", ["local", "seq"])
    def test_engines_agree(self, executor):
        prob = wing_problem(7, 5, 4)
        rep_np = _run(prob, _solver_cfg("numpy", executor))
        rep_c = _run(prob, _solver_cfg("compiled", executor))
        # Integer outputs are identical (branch-free config).
        assert len(rep_c.steps) == len(rep_np.steps)
        assert ([s.linear_iterations for s in rep_c.steps]
                == [s.linear_iterations for s in rep_np.steps])
        # Float outputs agree to accumulated-rounding level: the
        # block kernels differ at machine epsilon per apply, and ILU
        # conditioning amplifies that over steps (measured ~5e-9 rel
        # after 3 steps on this mesh).
        for sc, sn in zip(rep_c.steps, rep_np.steps):
            np.testing.assert_allclose(sc.fnorm, sn.fnorm,
                                       rtol=1e-6)

    @staticmethod
    def _second_order_unlimited(atol):
        """The benchmark's ``wing-mf2-compiled`` configuration on a tiny
        wing — matrix-free second-order, ``limiter="none"``, GMRES run
        to its tolerance — on both tiers: the same per-step iteration
        counts, and norms apart by at most ``atol`` of the first norm
        (rounding is relative to it, not to the converged one)."""
        prob = wing_problem(7, 5, 4, limiter="none")

        def cfg(engine):
            return SolverConfig(
                ptc=PTCConfig(cfl0=10.0, exponent=1.0), max_steps=40,
                target_reduction=1e-8, matrix_free=True, jacobian_lag=2,
                precond=PreconditionerConfig(nparts=4, fill_level=1),
                engine=engine)

        rep_np = _run(prob, cfg("numpy"))
        rep_c = _run(prob, cfg("compiled"))
        assert rep_np.converged and rep_c.converged
        assert ([s.linear_iterations for s in rep_c.steps]
                == [s.linear_iterations for s in rep_np.steps])
        f0 = rep_np.steps[0].fnorm
        for sc, sn in zip(rep_c.steps, rep_np.steps):
            np.testing.assert_allclose(sc.fnorm, sn.fnorm, rtol=1e-6,
                                       atol=atol * f0)

    def test_engines_agree_second_order_unlimited(self, monkeypatch):
        """The compiled second-order residual and trisolves differ from
        numpy's at rounding level, which must not move a single
        per-step iteration count.  The numeric ILU factors come from the
        numpy schedule on both tiers here, so the pin sees the residual
        and the trisolves alone."""
        monkeypatch.setattr(kernels, "ilu_numeric",
                            lambda *args, **kwargs: None)
        self._second_order_unlimited(atol=1e-13)

    def test_engines_agree_with_compiled_factors(self):
        """The same solve on the compiled tier end to end.  The C block
        factors are normwise, not bitwise, the numpy ones, and the
        matrix-free finite-difference products amplify that: the
        largest gap is 7.5e-13 of the first norm (step 6), where the
        pin above allows 1e-13, and another rounding of the factors
        (an LU pivot inverse instead of Gauss-Jordan) moves the gap to
        another step instead of removing it.  Iteration counts still
        must not move."""
        self._second_order_unlimited(atol=1e-12)

    def test_forced_fallback_is_bitwise(self, bare_machine):
        """Satellite: with no backend available, engine='compiled'
        must be the *same program* as engine='numpy' — bitwise."""
        prob = wing_problem(7, 5, 4)
        rep_np = _run(prob, _solver_cfg("numpy"))
        rep_c = _run(prob, _solver_cfg("compiled"))
        assert ([s.fnorm for s in rep_c.steps]
                == [s.fnorm for s in rep_np.steps])
        assert ([s.linear_iterations for s in rep_c.steps]
                == [s.linear_iterations for s in rep_np.steps])

    def test_disable_env_is_bitwise(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "1")
        capability.invalidate()
        prob = wing_problem(7, 5, 4)
        rep_np = _run(prob, _solver_cfg("numpy"))
        rep_c = _run(prob, _solver_cfg("compiled"))
        monkeypatch.delenv("REPRO_KERNELS_DISABLE")
        capability.invalidate()
        assert ([s.fnorm for s in rep_c.steps]
                == [s.fnorm for s in rep_np.steps])
