"""In-memory span list for the traced benchmark run.

A span is one call into a layer's public entry point, recorded by a
shim the benchmark installs from outside (see ``shims.py``): ``name``,
``id``, ``parent`` (the span that caused it), ``start``/``end`` on
``time.perf_counter``, the ``workload`` and an ``op_id`` (solve index,
or ``ticket.rid`` for a service request).  Each thread keeps its own
stack of open spans, so the service's dispatcher thread nests under
its own calls and never under the client's.  Spans stay in memory and
are written once, when the workload ends.

The analysis half turns the list into the per-layer numbers: a span's
self time is its duration minus the part of it its children cover, so
the self times of a subtree sum to the root's duration by construction.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["Span", "SpanRecorder", "self_times", "check_forest",
           "subtree_ids", "totals_by_name"]


class Span:
    __slots__ = ("name", "id", "parent", "start", "end", "workload",
                 "op_id")

    def __init__(self, name, sid, parent, start, workload, op_id):
        self.name = name
        self.id = sid
        self.parent = parent
        self.start = start
        self.end = None
        self.workload = workload
        self.op_id = op_id

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class SpanRecorder:
    """Thread-safe append-only span list with per-thread open stacks."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()      # next() is atomic in CPython
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op_id) -> None:
        """Tag spans opened by this thread from now on with ``op_id``."""
        self._local.op_id = op_id

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        op_id = parent.op_id if parent is not None \
            else getattr(self._local, "op_id", None)
        span = Span(name, next(self._ids),
                    parent.id if parent is not None else None,
                    time.perf_counter(), self.workload, op_id)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        self.spans.append(span)            # list.append is atomic

    def add(self, name: str, start: float, end: float, *, parent=None,
            op_id=None) -> Span:
        """Insert a span whose interval was clocked elsewhere (the
        service stamps a ticket's submit and finish times itself)."""
        span = Span(name, next(self._ids), parent, start, self.workload,
                    op_id)
        span.end = end
        self.spans.append(span)
        return span

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def to_dicts(self) -> list[dict]:
        """The spans as the span file holds them, in id order."""
        return [s.to_dict() for s in sorted(self.spans, key=lambda s: s.id)]

    def write(self, path) -> None:
        doc = {"workload": self.workload,
               "clock": "time.perf_counter",
               "spans": self.to_dicts(),
               "counters": dict(self.counters)}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ----------------------------------------------------------------------
# analysis, on the dicts of a span file
# ----------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    hi = float("-inf")
    for start, end in sorted(intervals):
        if end <= hi:
            continue
        total += end - max(start, hi)
        hi = end
    return total


def self_times(spans) -> dict[int, float]:
    """span id -> duration minus the time its children cover."""
    kids: dict[int, list] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: s["end"] - s["start"] - _covered(kids.get(s["id"], []))
            for s in spans}


def check_forest(spans, slack: float = 1e-6) -> list[str]:
    """Problems that stop ``spans`` from being a well-formed forest:
    duplicate ids, missing parents, a child outside its parent's
    interval, a negative self time.  Empty list = well formed."""
    problems = []
    by_id = {}
    for s in spans:
        if s["id"] in by_id:
            problems.append(f"duplicate id {s['id']}")
        by_id[s["id"]] = s
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} ends before it starts")
        if s["parent"] is None:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            problems.append(f"span {s['id']} has no parent {s['parent']}")
        elif (s["start"] < p["start"] - slack
              or s["end"] > p["end"] + slack):
            problems.append(f"span {s['id']} ({s['name']}) leaves its "
                            f"parent {s['parent']}")
    for sid, t in self_times(spans).items():
        if t < -slack:
            problems.append(f"span {sid} has self time {t}")
    return problems


def subtree_ids(spans, roots) -> set[int]:
    """Ids of ``roots`` and everything below them."""
    kids: dict[int, list[int]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s["id"])
    out: set[int] = set()
    todo = list(roots)
    while todo:
        sid = todo.pop()
        if sid not in out:
            out.add(sid)
            todo.extend(kids[sid])
    return out


def totals_by_name(spans, ids=None) -> dict[str, dict]:
    """name -> {"s": inclusive seconds, "self_s": ..., "calls": ...}
    over the spans whose id is in ``ids`` (all when omitted).  No shim
    nests under a span of its own name, so inclusive seconds add up."""
    own = self_times(spans)
    out: dict[str, dict] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for s in spans:
        if ids is not None and s["id"] not in ids:
            continue
        row = out[s["name"]]
        row["s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
        row["calls"] += 1
    return out
