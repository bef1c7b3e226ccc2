"""Timing shims around each layer's public entry points.

The layers are measured from outside: ``install`` replaces, for the
length of one traced run, the attributes through which the solver
reaches each layer — methods on the discretisation, preconditioner,
factor and matrix classes, and the names the driver, the ILU module,
the subdomain solver and the service import — with wrappers that open
a span, call the original, and close the span.  ``restore`` puts every
original back.  Nothing in ``src/`` changes; a span tree recorded
inside the program is ROADMAP item 2's job.

Span names are ``<repo module>.<what>``.  The wrappers never touch an
argument or a result, so a traced solve computes the same numbers as
an untraced one; they cost two clock reads and one list append each.
"""

from __future__ import annotations

import functools

from spans import SpanRecorder

__all__ = ["Shims"]


class Shims:
    """Installs and removes the layer shims for one recorder."""

    def __init__(self, recorder: SpanRecorder, *, service: bool = False):
        self.rec = recorder
        self.service = service
        self._saved: list[tuple[object, str, object]] = []
        self.reports: list = []      # GMRESResult of every traced gmres

    # -- plumbing ---------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, name: str, after=None):
        """Wrapper factory: span ``name`` around the call; ``after(args,
        result)`` runs inside the span (to count, or to wrap a result)."""
        rec = self.rec

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = rec.begin(name)
                try:
                    result = original(*args, **kwargs)
                    if after is not None:
                        result = after(args, result)
                    return result
                finally:
                    rec.end(span)
            return wrapper
        return make

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Shims":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- the shims --------------------------------------------------------
    def install(self) -> None:
        import repro.core.driver as driver
        import repro.euler.discretization as discretization
        import repro.precond.subdomain as subdomain
        import repro.sparse.ilu as ilu
        from repro.perfmodel.spmv_model import spmv_traffic_bytes
        from repro.precond.asm import AdditiveSchwarz
        from repro.sparse.bsr import BSRMatrix

        rec = self.rec
        t = self._timed

        # core: one solver object per solve, constructor and solve() apart
        self._patch(driver.NKSSolver, "__init__", t("core.ctor"))
        self._patch(driver.NKSSolver, "solve", t("core.solve"))
        self._patch(driver, "kway_partition", t("partition.kway"))

        # euler: residual, reconstruction, Jacobian assembly, and the
        # matrix-free operator (its returned matvec is one residual each)
        disc = discretization.EdgeFVDiscretization

        def wrap_operator(args, op):
            op.matvec = t("euler.fd_matvec")(op.matvec)
            return op

        self._patch(disc, "residual", t("euler.residual"))
        self._patch(disc, "shifted_jacobian", t("euler.jacobian"))
        self._patch(disc, "timestep_shift", t("euler.timestep_shift"))
        self._patch(disc, "jacobian_operator",
                    t("euler.jacobian_operator", wrap_operator))
        self._patch(discretization, "green_gauss_gradients",
                    t("euler.reconstruct"))
        self._patch(discretization, "reconstruct_edge_states",
                    t("euler.reconstruct"))

        # precond / sparse: set-up splits into symbolic, schedule
        # compile and numeric; an apply is one trisolve per subdomain
        def count_trisolve(args, result):
            factor = args[0]
            p = factor.pattern
            index = (p.l_indices.nbytes + p.u_indices.nbytes
                     + p.l_indptr.nbytes + p.u_indptr.nbytes)
            # factor values and indices once, b read, y written and
            # read back, x written: the compulsory traffic of L then U
            rec.count("sparse.trisolve_model_bytes",
                      factor.factor_bytes + index + 4 * args[1].nbytes)
            return result

        def count_spmv(args, result):
            a = args[0]
            bs = a.bs
            rec.count("sparse.spmv_model_bytes", spmv_traffic_bytes(
                a.nbrows * bs, a.nnzb * bs * bs, block_size=bs,
                value_bytes=a.data.itemsize,
                index_bytes=a.indices.itemsize).total)
            return result

        self._patch(AdditiveSchwarz, "setup", t("precond.setup"))
        self._patch(AdditiveSchwarz, "solve", t("precond.apply"))
        self._patch(ilu, "ilu_symbolic", t("sparse.ilu_symbolic"))
        self._patch(ilu, "compile_elimination_schedule",
                    t("sparse.schedule_compile"))
        self._patch(subdomain, "ilu_bsr", t("sparse.ilu_numeric"))
        self._patch(subdomain, "ilu_csr", t("sparse.ilu_numeric"))
        self._patch(ilu.ILUFactorBSR, "solve",
                    t("sparse.trisolve", count_trisolve))
        self._patch(ilu.ILUFactorCSR, "solve",
                    t("sparse.trisolve", count_trisolve))
        self._patch(BSRMatrix, "matvec", t("sparse.spmv", count_spmv))

        # solvers: GMRES as the driver calls it; iteration counts come
        # from its own result, not from the SolveReport
        def keep_result(args, result):
            self.reports.append(result)
            return result

        self._patch(driver, "gmres", t("solvers.gmres", keep_result))

        # parallel: the SPMD residual / matvec the seq executor routes to
        self._patch(driver, "distributed_residual", t("parallel.residual"))
        self._patch(driver, "distributed_matvec", t("parallel.matvec"))

        if self.service:
            import repro.service.service as service
            self._patch(service, "seed_solver", t("service.seed"))
            self._patch(service, "harvest_context", t("service.harvest"))
