"""Per-phase state-hash trails: diff runs to their first divergence.

The end-to-end equivalence tests assert ``seq == proc`` bitwise at the
end of a solve; when that assert trips, the interesting question is
*which phase* diverged first — residual 17?  the matvec after it?
This module answers it: each executor run records a
:class:`HashTrail` of ``(phase, digest)`` steps (the instrumented
``distributed_*`` entry points note their results when a capture is
active), and :func:`first_divergence` compares two trails step by
step and reports the first mismatch instead of a run-end boolean.

Usage (sanitize flag on)::

    with capture("seq") as seq_trail:
        run_solver(executor="seq")
    with capture("proc") as proc_trail:
        run_solver(executor="proc")
    where = first_divergence(seq_trail, proc_trail)
    # None, or {"step": 17, "phase": "matvec", ...}

Hashes are sha1 over dtype + shape + raw bytes, so a single flipped
bit anywhere in a result changes the digest.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.sanitize.writes import enabled

__all__ = ["HashTrail", "capture", "first_divergence", "note", "state_hash"]


def state_hash(*arrays) -> str:
    """Digest of the given arrays' dtype, shape, and exact bytes."""
    h = hashlib.sha1()
    # lint: loop-ok (hash accumulation over a handful of arrays)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


class HashTrail:
    """An ordered record of ``(phase, digest)`` steps for one run."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.steps: list[tuple[str, str]] = []

    def record(self, phase: str, *arrays) -> None:
        self.steps.append((phase, state_hash(*arrays)))

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return f"HashTrail({self.name!r}, {len(self.steps)} steps)"


#: Stack of active trails; :func:`note` records into the innermost.
_ACTIVE: list[HashTrail] = []


class capture:
    """Context manager installing a trail that :func:`note` records to."""

    def __init__(self, name: str = "") -> None:
        self.trail = HashTrail(name)

    def __enter__(self) -> HashTrail:
        _ACTIVE.append(self.trail)
        return self.trail

    def __exit__(self, *exc) -> None:
        _ACTIVE.pop()


def note(phase: str, *arrays) -> None:
    """Record a phase result into the active trail, if any.

    The instrumented entry points call this unconditionally; with no
    active capture (or the sanitize flag off) it is a cheap no-op, so
    production paths pay nothing measurable.
    """
    if not _ACTIVE or not enabled():
        return
    _ACTIVE[-1].record(phase, *arrays)


def first_divergence(a: HashTrail, b: HashTrail) -> dict | None:
    """First step where two trails disagree, or None when equivalent.

    Returns a dict naming the step index, the phase labels, and both
    digests — enough to say "the 3rd matvec of ``proc`` differs from
    ``seq``" without rerunning anything.
    """
    # lint: loop-ok (step-by-step trail comparison; debug-only path)
    for i, (sa, sb) in enumerate(zip(a.steps, b.steps)):
        if sa != sb:
            return {"step": i, "phase": sa[0],
                    a.name or "a": {"phase": sa[0], "hash": sa[1]},
                    b.name or "b": {"phase": sb[0], "hash": sb[1]}}
    if len(a) != len(b):
        i = min(len(a), len(b))
        longer = a if len(a) > len(b) else b
        return {"step": i, "phase": longer.steps[i][0],
                "missing_in": (b.name or "b") if len(a) > len(b)
                else (a.name or "a")}
    return None
