"""Write sanitizer: shadow-track written index intervals per owner.

The determinism contract of the parallel executor reduces to one
property: concurrent writers touch **disjoint** row sets (ProcPool
ranks write only their owned rows).  The end-to-end bitwise tests
cannot check this — two ranks that race on the same row but happen to
store the same value pass bitwise.  :class:`WriteSanitizer` checks the
property directly: every owner claims the intervals it writes, a claim
that overlaps another owner's interval raises :class:`SanitizeError`
naming both owners and the contested rows, and
:meth:`WriteSanitizer.require_cover` flags rows nobody claimed.

All of it is opt-in via ``REPRO_SANITIZE`` (:func:`enabled`); the
ledger is per-process.
"""

from __future__ import annotations

import os
import threading

import numpy as np

__all__ = ["SanitizeError", "WriteSanitizer", "enabled"]


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for runtime checks."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class SanitizeError(RuntimeError):
    """A runtime parallel-safety contract was violated."""


class WriteSanitizer:
    """Interval ledger: who wrote which rows of which array.

    Claims are keyed by an array identity (``key``) so intervals on
    different arrays never collide.  Same-owner overlap is fine (an
    owner may rewrite its own rows); cross-owner overlap raises
    immediately.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        #: key -> list of (lo, hi, owner) claims
        self._claims: dict[object, list[tuple[int, int, object]]] = {}
        # lint: purity-ok (lock is created per instance inside the owning process, never crosses fork)
        self._lock = threading.Lock()

    def claim(self, owner, lo: int, hi: int, key: object = None) -> None:
        """Record that ``owner`` wrote rows ``[lo, hi)`` of array ``key``."""
        lo, hi = int(lo), int(hi)
        if hi <= lo:
            return
        with self._lock:
            ledger = self._claims.setdefault(key, [])
            for (clo, chi, cowner) in ledger:
                if cowner != owner and clo < hi and lo < chi:
                    where = f" of {self.label!r}" if self.label else ""
                    raise SanitizeError(
                        f"overlapping writes{where}: owner {owner!r} wrote "
                        f"rows [{lo}, {hi}) which intersect rows "
                        f"[{clo}, {chi}) already written by {cowner!r} — "
                        f"owners' writes must be disjoint for the output "
                        f"to be schedule-independent")
            ledger.append((lo, hi, owner))

    def claim_indices(self, owner, indices, key: object = None) -> None:
        """Claim an arbitrary index set (coalesced into runs)."""
        idx = np.asarray(indices).ravel()
        if idx.size == 0:
            return
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
            if idx.size == 0:
                return
        runs = np.sort(idx.astype(np.int64, copy=False))
        cuts = np.flatnonzero(np.diff(runs) > 1) + 1
        starts = np.concatenate([[0], cuts])
        ends = np.concatenate([cuts, [runs.size]])
        # lint: loop-ok (one claim per coalesced run; debug-only path)
        for s, e in zip(starts, ends):
            self.claim(owner, int(runs[s]), int(runs[e - 1]) + 1, key=key)

    def require_cover(self, lo: int, hi: int, key: object = None) -> None:
        """Check the claims on ``key`` cover every row of ``[lo, hi)``."""
        with self._lock:
            ledger = sorted((c[0], c[1]) for c in self._claims.get(key, []))
        cursor = int(lo)
        # lint: loop-ok (interval sweep over recorded claims; debug-only)
        for clo, chi in ledger:
            if clo > cursor:
                break
            cursor = max(cursor, chi)
        if cursor < int(hi):
            where = f" of {self.label!r}" if self.label else ""
            raise SanitizeError(
                f"coverage gap{where}: rows [{cursor}, {hi}) were never "
                f"claimed by any owner — some output rows are not written "
                f"by any rank")
