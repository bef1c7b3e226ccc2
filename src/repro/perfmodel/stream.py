"""STREAM-style sustainable-bandwidth measurement.

The paper uses McCalpin's STREAM benchmark as the definition of a
machine's achievable memory bandwidth; the linear-algebra phases of
PETSc-FUN3D run at essentially that limit.  ``measure_stream_triad``
measures the *host* machine.  numpy has no fused ``a = b + s*c``: its
triad is two passes through a scratch array, and the rate counts the
words those two passes move.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["measure_stream_triad", "StreamResult"]


class StreamResult(dict):
    """Measured bandwidths in bytes/s, keyed by kernel name."""

    @property
    def triad(self) -> float:
        return self["triad"]


def measure_stream_triad(n: int = 4_000_000, repeats: int = 5) -> StreamResult:
    """Measure copy/scale/add/triad bandwidth of this host with numpy.

    Every operand, the triad's scratch array ``t`` included, is
    allocated before timing, so a timed repetition allocates nothing.
    Traffic follows STREAM's convention (no write-allocate term),
    counted over what the timed code moves: copy/scale 2 words per
    element, add 3, and the triad 5 (``t = s*c`` reads 1 and writes 1,
    ``a = b + t`` reads 2 and writes 1).
    """
    a = np.zeros(n)
    t = np.zeros(n)
    b = np.random.default_rng(0).random(n)
    c = np.random.default_rng(1).random(n)
    s = 3.0
    results = {}

    def run(name: str, words: int, fn) -> None:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        results[name] = words * 8 * n / best

    def triad() -> None:
        np.multiply(c, s, out=t)
        np.add(b, t, out=a)

    run("copy", 2, lambda: np.copyto(a, b))
    run("scale", 2, lambda: np.multiply(b, s, out=a))
    run("add", 3, lambda: np.add(b, c, out=a))
    run("triad", 5, triad)
    return StreamResult(results)
