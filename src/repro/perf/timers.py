"""The monotonic wall clock: :func:`time.perf_counter` (monotonic,
highest available resolution) behind one context manager, so every
recorded span is timed the same way.
"""

from __future__ import annotations

import time

# lint: clock

__all__ = ["Timer"]


class Timer:
    """Context manager measuring one wall-clock interval.

    >>> with Timer() as t:
    ...     work()
    >>> t.elapsed   # seconds

    Re-entering restarts the measurement; ``elapsed`` holds the most
    recent interval (and reads the running clock while inside the
    ``with`` block, so it can be polled for progress cut-offs).
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self._stop: float | None = None

    def __enter__(self) -> "Timer":
        self._stop = None
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._stop = time.perf_counter()

    @property
    def elapsed(self) -> float:
        if self._start is None:
            return 0.0
        end = self._stop if self._stop is not None else time.perf_counter()
        return end - self._start
