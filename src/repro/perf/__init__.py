"""The clock and the report plumbing the rest of the package shares.

Benchmarking lives outside ``src/``, in ``benchmarks/e2e`` (the
benchmark of record: time to a converged solve, priced layer by
layer).  What remains here is exactly what other modules import:

* :mod:`repro.perf.timers` — :class:`Timer`, the one monotonic
  wall-clock the telemetry recorder times through (lint rules R005 and
  R008 send every other module here instead of to :mod:`time`);
* :mod:`repro.perf.regress` — :func:`git_sha`, which attributes a
  report to a commit, and :func:`atomic_write_json`, which writes one
  so a crash never leaves half a document.
"""

from repro.perf.timers import Timer
from repro.perf.regress import atomic_write_json, git_sha

__all__ = [
    "Timer",
    "atomic_write_json",
    "git_sha",
]
