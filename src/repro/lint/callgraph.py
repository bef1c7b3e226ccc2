"""Project-wide call graph over :class:`~repro.lint.facts.ModuleFacts`.

Nodes are ``(module_dotted_name, function_qualname)`` pairs; edges come
from the per-module resolved :class:`~repro.lint.facts.CallRef` lists.
The graph answers one question the parallel-safety rules need: *which
functions can execute inside a forked worker process?*  Worker entry
points are the callables handed to ``Process(target=...)`` and
``os.register_at_fork(after_in_child=...)``; reachability is the
transitive closure over resolved call edges, with two structural
extensions:

* a call to ``Cls.__init__`` follows from ``Cls(...)`` constructor
  resolution (constructor calls resolve to the class name, which the
  graph expands to its ``__init__`` when one exists);
* a nested function ``f.<locals>.g`` is treated as reachable whenever
  ``f`` is — closures run where their definer runs, and are handed
  on as callbacks rather than called by name.

Resolution is deliberately an under-approximation (see
:mod:`repro.lint.facts`): unresolved calls create no edges.  That keeps
coordinator-only code out of the worker partition — the property R007's
"written by coordinator vs read by worker" split and R008's purity
scope both depend on.
"""

from __future__ import annotations

from collections import deque

from repro.lint.facts import FunctionFacts, ModuleFacts

__all__ = ["CallGraph", "build_call_graph"]

Node = tuple[str, str]          # (module dotted name, function qualname)


class CallGraph:
    """Resolved call edges plus worker-entry reachability."""

    def __init__(self, facts_by_module: dict[str, ModuleFacts]) -> None:
        self.facts_by_module = facts_by_module
        #: node -> set of callee nodes
        self.edges: dict[Node, set[Node]] = {}
        #: worker entry nodes, in discovery order
        self.worker_entries: list[Node] = []
        self._build()
        self._worker_reachable: set[Node] | None = None

    # -- construction --------------------------------------------------
    def _lookup(self, mod: str, name: str) -> Node | None:
        """Resolve (module, name) to a defined function node, expanding
        class names to ``Cls.__init__`` and following one re-export hop
        is out of scope — direct definitions only."""
        mf = self.facts_by_module.get(mod)
        if mf is None:
            return None
        if name in mf.functions:
            return (mod, name)
        if name in mf.classes:
            init = f"{name}.__init__"
            if init in mf.functions:
                return (mod, init)
        return None

    def _resolve_ref(self, mod: str, ref) -> Node | None:
        if ref.kind == "local":
            return self._lookup(mod, ref.name)
        return self._lookup(ref.module, ref.name)

    def _build(self) -> None:
        for mod, mf in self.facts_by_module.items():
            for qual, fn in mf.functions.items():
                node = (mod, qual)
                outs = self.edges.setdefault(node, set())
                for ref in fn.calls:
                    callee = self._resolve_ref(mod, ref)
                    if callee is not None and callee != node:
                        outs.add(callee)
            for entry in mf.worker_entries:
                node = self._lookup(mod, entry)
                if node is not None and node not in self.worker_entries:
                    self.worker_entries.append(node)

    # -- queries -------------------------------------------------------
    def function(self, node: Node) -> FunctionFacts | None:
        mf = self.facts_by_module.get(node[0])
        return mf.functions.get(node[1]) if mf else None

    def callees(self, node: Node) -> set[Node]:
        return self.edges.get(node, set())

    def _nested_of(self, node: Node) -> list[Node]:
        """Functions defined inside ``node`` (closures run with it)."""
        mod, qual = node
        mf = self.facts_by_module.get(mod)
        if mf is None:
            return []
        prefix = f"{qual}.<locals>."
        return [(mod, q) for q in mf.functions if q.startswith(prefix)]

    def reachable_from(self, roots: list[Node]) -> set[Node]:
        """Transitive closure over call edges + closure containment."""
        seen: set[Node] = set()
        work = deque(n for n in roots if self.function(n) is not None)
        seen.update(work)
        while work:
            node = work.popleft()
            for nxt in (*self.callees(node), *self._nested_of(node)):
                if nxt not in seen and self.function(nxt) is not None:
                    seen.add(nxt)
                    work.append(nxt)
        return seen

    def worker_reachable(self) -> set[Node]:
        """Every function that can execute inside a forked worker."""
        if self._worker_reachable is None:
            self._worker_reachable = self.reachable_from(
                list(self.worker_entries))
        return self._worker_reachable

    def call_paths_to(self, target: Node,
                      roots: list[Node] | None = None,
                      limit: int = 1) -> list[list[Node]]:
        """Up to ``limit`` shortest root->target paths (for messages)."""
        roots = roots if roots is not None else list(self.worker_entries)
        paths: list[list[Node]] = []
        for root in roots:
            if len(paths) >= limit:
                break
            prev: dict[Node, Node] = {}
            work = deque([root])
            seen = {root}
            found = root == target
            while work and not found:
                node = work.popleft()
                for nxt in (*self.callees(node), *self._nested_of(node)):
                    if nxt in seen or self.function(nxt) is None:
                        continue
                    seen.add(nxt)
                    prev[nxt] = node
                    if nxt == target:
                        found = True
                        break
                    work.append(nxt)
            if found:
                path = [target]
                while path[-1] != root:
                    path.append(prev[path[-1]])
                paths.append(path[::-1])
        return paths


def build_call_graph(facts: list[ModuleFacts]) -> CallGraph:
    by_mod: dict[str, ModuleFacts] = {}
    for mf in facts:
        # Last write wins on a (pathological) duplicate dotted name; the
        # repo layout guarantees uniqueness under src/.
        by_mod[mf.module_name] = mf
    return CallGraph(by_mod)
