"""repro.sanitize — opt-in runtime checks for the parallel contracts.

The static rules R007–R008 (:mod:`repro.lint`) prove the *code* obeys
the parallel-safety contracts; this package watches the *run*:

- :mod:`repro.sanitize.writes` — a write sanitizer that shadow-tracks
  the index intervals each rank writes and raises
  :class:`SanitizeError` the moment two owners touch the same row.  A
  racy partition whose ranks overwrite each other with *identical*
  values is bitwise clean end to end — only the overlap check can see
  it.
- :mod:`repro.sanitize.header` — coordinator/worker header-slot echo
  for the shm protocol: workers report which ``_H_*`` slots they
  actually read and the coordinator verifies every one of them was
  written (R007's property, per operation).
- :mod:`repro.sanitize.statehash` — a per-phase state-hash trail so
  two executor runs (``seq`` vs ``proc``) can be diffed to the *first*
  divergent phase instead of a run-end bitwise assert.

Everything is gated on the ``REPRO_SANITIZE`` environment variable
(unset/``0`` = off, anything else = on); the instrumented executor
(:class:`repro.parallel.procpool.ProcPool`) checks it itself, so
normal runs pay one string comparison per call and nothing else:

.. code-block:: console

    REPRO_SANITIZE=1 python -m pytest tests/test_parallel_procpool.py

"""

from repro.sanitize.writes import SanitizeError, WriteSanitizer, enabled
from repro.sanitize.header import (SlotTracker, check_header_echo, mask_of,
                                   track_slots)
from repro.sanitize.statehash import (HashTrail, capture, first_divergence,
                                      note, state_hash)

__all__ = [
    "HashTrail", "SanitizeError", "SlotTracker", "WriteSanitizer",
    "capture", "check_header_echo", "enabled", "first_divergence",
    "mask_of", "note", "state_hash", "track_slots",
]
