"""Runtime shm header-slot echo: did workers read only written slots?

Every ``_H_*`` slot a worker reads must have been written by the
coordinator; this checks that invariant on a live pool.  The
coordinator wraps its header view in a :class:`SlotTracker` that
records every slot it writes over the pool's lifetime; each worker
wraps its (fork-inherited) view in one that records every slot it
reads during an operation and echoes the read
mask back through a spare header slot before releasing its DONE
token.  After the barrier the coordinator calls
:func:`check_header_echo`: a slot that was read but never written is
schema drift caught at the exact operation that consumed the unset
cell — :class:`~repro.sanitize.writes.SanitizeError` names it.

The trackers are plain ndarray views (shared memory untouched, scalar
indexing only), so the instrumented protocol is byte-identical to the
production one apart from the echo slot, which lives in the header's
existing spare tail — no arena layout change.
"""

from __future__ import annotations

import numpy as np

from repro.sanitize.writes import SanitizeError

__all__ = ["SlotTracker", "check_header_echo", "mask_of", "track_slots"]


class SlotTracker(np.ndarray):
    """Header view recording which slots are read and written.

    Scalar ``hdr[i]`` reads land in ``reads``; ``hdr[i] = v`` writes
    land in ``writes`` (and pass through to shared memory).  Whole-
    array stores (``hdr[:] = 0``) count as writing every slot.
    """

    def __array_finalize__(self, obj) -> None:
        self.reads = getattr(obj, "reads", None)
        self.writes = getattr(obj, "writes", None)

    def __getitem__(self, key):
        if self.reads is not None and isinstance(key, (int, np.integer)):
            self.reads.add(int(key) % self.shape[0])
        return super().__getitem__(key)

    def __setitem__(self, key, value) -> None:
        if self.writes is not None:
            if isinstance(key, (int, np.integer)):
                self.writes.add(int(key) % self.shape[0])
            else:
                self.writes.update(range(self.shape[0]))
        super().__setitem__(key, value)


def track_slots(hdr: np.ndarray) -> SlotTracker:
    """Wrap a header view; the result shares the underlying memory."""
    t = hdr.view(SlotTracker)
    t.reads = set()
    t.writes = set()
    return t


def mask_of(slots, exclude=()) -> int:
    """Bitmask of slot indices (bit ``i`` set = slot ``i`` touched)."""
    m = 0
    for s in slots:
        if s not in exclude:
            m |= 1 << int(s)
    return m


def check_header_echo(written_mask: int, read_mask: int,
                      slot_names: dict[int, str] | None = None) -> None:
    """Raise when workers read a header slot nothing ever wrote.

    ``written_mask`` is the coordinator's cumulative write set (header
    fields persist across operations — the matrix descriptor slots are
    written once at load time and read by every later matvec, so the
    check is against everything written so far, not this operation's
    writes alone).
    """
    stale = read_mask & ~written_mask
    if not stale:
        return
    bits = [i for i in range(64) if stale >> i & 1]
    names = slot_names or {}
    what = ", ".join(f"{i} ({names[i]})" if i in names else str(i)
                     for i in bits)
    raise SanitizeError(
        f"shm header schema drift: workers read slot(s) {what} that the "
        f"coordinator never wrote — they consumed unset cells (zeros), "
        f"which the bitwise end-to-end tests may not notice")
