"""The JSON trace document: schema, validation, atomic I/O.

A ``schema_version``, a free-form ``meta`` block, and sorted maps so
two traces diff cleanly in CI:

.. code-block:: json

    {
      "schema_version": 1,
      "meta": {"nprocs": 4, "problem": "wing(9,7,5)"},
      "phases": {
        "flux": {"0": {"total_s": 0.12, "self_s": 0.12,
                        "count": 8, "wait_s": 0.01}}
      },
      "counters": {"messages": {"0": 14}, "bytes": {"0": 35840}}
    }

``phases`` keys must come from
:data:`repro.telemetry.recorder.KNOWN_PHASES`; :func:`validate_trace`
(run on every write *and* load) rejects anything else, which is what
lets the CI smoke step fail on unknown phase names.  Writes go through
:func:`repro.perf.regress.atomic_write_json`, so a crash mid-dump
cannot truncate a previously recorded trace.
"""

from __future__ import annotations

import json
import numbers
import pathlib

from repro.perf.regress import atomic_write_json
from repro.telemetry.recorder import KNOWN_PHASES, TraceRecorder

__all__ = ["TRACE_SCHEMA_VERSION", "validate_trace", "write_trace",
           "load_trace"]

TRACE_SCHEMA_VERSION = 1

_ENTRY_FIELDS = ("total_s", "self_s", "count", "wait_s")


def validate_trace(doc: dict) -> dict:
    """Check ``doc`` against the trace schema; returns it unchanged.

    Raises :class:`ValueError` on a version mismatch, a phase name
    outside :data:`KNOWN_PHASES`, or malformed per-rank entries.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    if doc.get("schema_version") != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema: {doc.get('schema_version')!r}")
    if not isinstance(doc.get("meta", {}), dict):
        raise ValueError("trace 'meta' must be an object")
    phases = doc.get("phases", {})
    if not isinstance(phases, dict):
        raise ValueError("trace 'phases' must be an object")
    for phase, per_rank in phases.items():
        if phase not in KNOWN_PHASES:
            raise ValueError(f"unknown phase name {phase!r} in trace "
                             f"(known: {sorted(KNOWN_PHASES)})")
        if not isinstance(per_rank, dict):
            raise ValueError(f"phase {phase!r} must map ranks to entries")
        for rank, entry in per_rank.items():
            if not str(rank).lstrip("-").isdigit():
                raise ValueError(f"bad rank key {rank!r} in phase {phase!r}")
            for fieldname in _ENTRY_FIELDS:
                v = entry.get(fieldname)
                if not isinstance(v, numbers.Real):
                    raise ValueError(
                        f"phase {phase!r} rank {rank}: field {fieldname!r} "
                        f"missing or non-numeric ({v!r})")
    counters = doc.get("counters", {})
    if not isinstance(counters, dict):
        raise ValueError("trace 'counters' must be an object")
    for name, per_rank in counters.items():
        if not isinstance(per_rank, dict):
            raise ValueError(f"counter {name!r} must map ranks to values")
        for rank, v in per_rank.items():
            if not isinstance(v, numbers.Real):
                raise ValueError(f"counter {name!r} rank {rank}: "
                                 f"non-numeric value {v!r}")
    return doc


def write_trace(path, trace: TraceRecorder | dict,
                meta: dict | None = None) -> pathlib.Path:
    """Validate and atomically write a trace; returns the path.

    ``trace`` is either a :class:`TraceRecorder` (exported with
    ``to_dict(meta)``) or an already-built document (``meta`` ignored).
    """
    doc = trace.to_dict(meta) if isinstance(trace, TraceRecorder) else trace
    validate_trace(doc)
    return atomic_write_json(path, doc)


def load_trace(path) -> dict:
    """Read a trace back, validating it (raises on schema violations)."""
    return validate_trace(json.loads(pathlib.Path(path).read_text()))
