"""repro.sanitize — opt-in per-phase state-hash trails.

:mod:`repro.sanitize.statehash` records a sha1 trail of every
``distributed_residual`` / ``distributed_matvec`` result while a
:func:`capture` is active, so two executor runs (``seq`` vs a
``ProcPool``) can be diffed to the *first* divergent phase instead of
a run-end bitwise assert.

It is gated on the ``REPRO_SANITIZE`` environment variable
(unset/``0`` = off, anything else = on), so normal runs pay one list
check per call and nothing else:

.. code-block:: console

    REPRO_SANITIZE=1 python -m pytest tests/test_parallel_procpool.py

"""

from repro.sanitize.statehash import (HashTrail, capture, enabled,
                                      first_divergence, note, state_hash)

__all__ = [
    "HashTrail", "capture", "enabled", "first_divergence", "note",
    "state_hash",
]
