"""The report plumbing the rest of the package shares.

Benchmarking lives outside ``src/``, in ``benchmarks/e2e`` (the
benchmark of record: time to a converged solve, priced layer by
layer).  What remains here is exactly what other modules import:
:mod:`repro.perf.regress` — :func:`git_sha`, which attributes a report
to a commit, and :func:`atomic_write_json`, which writes one so a crash
never leaves half a document.  The telemetry recorder reads
:func:`time.perf_counter` itself.
"""

from repro.perf.regress import atomic_write_json, git_sha

__all__ = [
    "atomic_write_json",
    "git_sha",
]
