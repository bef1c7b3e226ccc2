"""Per-module analysis facts — the interprocedural layer's currency.

The per-module rules (R002-R006) walk a live AST; the
interprocedural rules (R001, R007, R008) instead consume a
:class:`ModuleFacts` summary extracted once per file: definitions,
resolved call references, worker entry points, shm-header slot
accesses, and "impurity" facts (module-state writes, clocks, RNG,
fork-unsafe resource acquisition).  The project-wide pass (call graph
+ reachability) runs over facts alone.

Call references are resolved *locally* with a deliberately conservative
"type-lite" strategy — the only bindings trusted are ones the module
itself spells out:

* a direct name call resolves to a same-module function or an
  imported one (``from repro.parallel.spmd import rank_residual``);
* ``self.m()`` resolves to a method of the enclosing class;
* ``alias.f()`` resolves through ``import repro.kernels as alias`` /
  ``from repro import kernels as alias``;
* ``var.m()`` resolves only when ``var`` is locally bound to a known
  class constructor (``rec = TraceRecorder()``) or annotated with a
  known class name.

Anything else (untyped parameters, duck-typed attributes) stays
unresolved and creates no edge — under-approximation is the choice
here, because a name-based fallback would wire unrelated ``close()``
methods together and poison the worker-reachability analysis that
R007/R008 depend on.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from repro.lint.model import Finding, ModuleInfo

__all__ = ["CallRef", "FunctionFacts", "ModuleFacts", "extract_facts",
           "module_dotted_name"]

_SLOT_RE = re.compile(r"^_H_[A-Z0-9_]+$")
_HDR_SLOTS_NAME = "_HDR_SLOTS"

#: names whose *call* marks the callee as a worker entry point, mapped
#: to the keyword argument holding the entry callable.
_ENTRY_CALLS = {
    "Process": "target",
    "Thread": "target",
    "register_at_fork": "after_in_child",
}

#: mutating container methods — calling one on a module-level name is a
#: module-state write.
_MUTATORS = frozenset({
    "append", "add", "extend", "insert", "remove", "discard", "pop",
    "popitem", "clear", "update", "setdefault",
})

_CLOCKS = frozenset({"time", "perf_counter", "monotonic", "process_time",
                     "thread_time", "monotonic_ns", "perf_counter_ns",
                     "time_ns"})

#: np.random attributes that are fine (seeded/generator construction).
_RNG_OK = frozenset({"default_rng", "Generator", "SeedSequence"})

#: constructors whose call acquires a fork-unsafe resource.
_RESOURCE_CTORS = frozenset({
    "ThreadPoolExecutor", "ProcessPoolExecutor", "Thread", "Process",
    "Pool", "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Barrier",
})

_WRITE_MODES = re.compile(r"[wax+]")


@dataclass(frozen=True)
class CallRef:
    """One resolved call site: ``("local", "Cls.m")`` or
    ``("import", "repro.parallel.spmd", "rank_matvec")``."""

    kind: str                   # "local" | "import"
    module: str                 # dotted module ("" for local)
    name: str                   # function or "Class.method" qualname


@dataclass
class FunctionFacts:
    """Everything the project pass needs to know about one function."""

    qual: str                   # "fn" | "Cls.m" | "fn.<locals>.inner"
    name: str
    lineno: int
    col: int
    cls: str | None = None
    calls: list[CallRef] = field(default_factory=list)
    #: [kind, detail, lineno, col]; kind in {"global-rebind",
    #: "module-mutation", "clock", "rng", "resource"}
    impurities: list[list] = field(default_factory=list)
    slot_reads: list[list] = field(default_factory=list)    # [slot, ln, col]
    slot_writes: list[list] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """The per-module summary the project pass runs on.

    Mirrors just enough of :class:`~repro.lint.model.ModuleInfo` —
    pragma suppression and fingerprinted finding construction — that a
    rule can emit findings from facts alone.
    """

    rel: str
    module_name: str
    kind: str | None = None
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    #: top-level defs only: name -> lineno (R001's pairing universe)
    top_defs: dict[str, int] = field(default_factory=dict)
    classes: dict[str, list] = field(default_factory=dict)
    worker_entries: list[str] = field(default_factory=list)
    hdr_consts: dict[str, int] = field(default_factory=dict)
    hdr_const_lines: dict[str, int] = field(default_factory=dict)
    hdr_slots: int | None = None
    suppress: dict[int, list] = field(default_factory=dict)
    own_line_pragmas: list[int] = field(default_factory=list)
    line_texts: dict[int, str] = field(default_factory=dict)

    # -- ModuleInfo-compatible surface ---------------------------------
    def suppressed(self, rule: str, line: int) -> bool:
        if rule in self.suppress.get(line, ()):
            return True
        prev = line - 1
        return (prev in self.own_line_pragmas
                and rule in self.suppress.get(prev, ()))

    def finding(self, rule: str, line: int, col: int, message: str,
                _counts: dict | None = None) -> Finding:
        norm = self.line_texts.get(line, "").strip()
        occ = 0
        if _counts is not None:
            key = (rule, norm)
            occ = _counts.get(key, 0)
            _counts[key] = occ + 1
        digest = hashlib.sha1(
            f"{rule}|{self.rel}|{norm}|{occ}".encode()).hexdigest()[:16]
        return Finding(rule=rule, path=self.rel, line=line, col=col,
                       message=message, fingerprint=digest)


def module_dotted_name(rel: str) -> str:
    """``src/repro/parallel/spmd.py`` -> ``repro.parallel.spmd``;
    paths outside a ``src`` root fall back to their stem."""
    parts = list(PurePosixPath(rel).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else rel


def _chain(node: ast.expr) -> list[str] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


class _Extractor(ast.NodeVisitor):
    """One pass over a parsed module producing :class:`ModuleFacts`."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.facts = ModuleFacts(
            rel=module.rel,
            module_name=module_dotted_name(module.rel),
            kind=module.kind,
            suppress={ln: set(rs) for ln, rs in module._suppress.items()},
            own_line_pragmas=set(module._own_line_pragmas),
        )
        #: alias -> dotted module (``import numpy as np`` and module
        #: imports via ``from repro import kernels as _kernels``)
        self.mod_aliases: dict[str, str] = {}
        #: local name -> (dotted module, original name) for
        #: ``from m import f [as g]``
        self.from_imports: dict[str, tuple[str, str]] = {}
        self.np_aliases: set[str] = set()
        self.module_level_names: set[str] = set()
        self._fn_stack: list[FunctionFacts] = []
        self._cls_stack: list[str] = []
        #: per active function: names bound locally (params + assigns)
        self._locals_stack: list[set[str]] = []
        #: per active function: var name -> local class name it holds
        self._types_stack: list[dict[str, str]] = []
        if module.tree is not None:
            self._prepass(module.tree)

    def _prepass(self, tree: ast.Module) -> None:
        """Seed the resolution tables before the main visit.

        Call resolution consults ``top_defs``/``classes``/imports while
        walking; without this pre-pass a call to a function defined
        *later* in the file would not resolve (definition order must
        not decide graph edges).
        """
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.facts.top_defs[node.name] = node.lineno
                self._note_line(node.lineno)
            elif isinstance(node, ast.ClassDef):
                self.facts.classes[node.name] = [
                    s.name for s in node.body
                    if isinstance(s, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))]
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.module_level_names.add(t.id)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                self.module_level_names.add(node.target.id)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._note_import(node)

    def _note_import(self, node) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname \
                    else alias.name.split(".")[0]
                self.mod_aliases[local] = target
                if alias.name == "numpy":
                    self.np_aliases.add(alias.asname or "numpy")
        else:
            mod = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                # ``from repro import kernels`` imports a module: treat
                # as a module alias AND a from-import; resolution
                # prefers the alias for dotted calls and the
                # from-import for bare ones.
                self.mod_aliases.setdefault(
                    local, f"{mod}.{alias.name}" if mod else alias.name)
                self.from_imports[local] = (mod, alias.name)

    # -- helpers -------------------------------------------------------
    def _note_line(self, lineno: int) -> None:
        self.facts.line_texts[lineno] = self.module.line_text(lineno)

    @property
    def _fn(self) -> FunctionFacts | None:
        return self._fn_stack[-1] if self._fn_stack else None

    def _impurity(self, kind: str, detail: str, node: ast.AST) -> None:
        if self._fn is not None:
            self._fn.impurities.append(
                [kind, detail, node.lineno, node.col_offset])
            self._note_line(node.lineno)

    def _add_call(self, ref: CallRef | None) -> None:
        if ref is not None and self._fn is not None:
            self._fn.calls.append(ref)

    def _resolve_callable_name(self, name: str) -> CallRef | None:
        """A bare name used as a callable/callback."""
        if name in self.from_imports:
            mod, orig = self.from_imports[name]
            return CallRef("import", mod, orig)
        if name in self.facts.top_defs or name in self.facts.classes:
            return CallRef("local", "", name)
        return None

    def _resolve_entry_expr(self, node: ast.expr) -> CallRef | None:
        """The callable handed to ``Process(target=...)`` etc."""
        chain = _chain(node)
        if chain is None:
            return None
        if len(chain) == 1:
            return self._resolve_callable_name(chain[0])
        if len(chain) == 2 and chain[0] == "self" and self._cls_stack:
            return CallRef("local", "",
                           f"{self._cls_stack[-1]}.{chain[1]}")
        return None

    def _resolve_call(self, node: ast.Call) -> CallRef | None:
        chain = _chain(node.func)
        if chain is None:
            return None
        if len(chain) == 1:
            return self._resolve_callable_name(chain[0])
        base, attr = chain[0], chain[-1]
        if len(chain) == 2:
            if base == "self" and self._cls_stack:
                return CallRef("local", "", f"{self._cls_stack[-1]}.{attr}")
            if base in self.facts.classes:
                return CallRef("local", "", f"{base}.{attr}")
            if base in self.from_imports:
                mod, orig = self.from_imports[base]
                if orig[:1].isupper():          # imported class, Cls.m()
                    return CallRef("import", mod, f"{orig}.{attr}")
            # typed local: var bound to a known class constructor
            for types in reversed(self._types_stack):
                if base in types:
                    cls_name = types[base]
                    if cls_name in self.facts.classes:
                        return CallRef("local", "", f"{cls_name}.{attr}")
                    if cls_name in self.from_imports:
                        mod, orig = self.from_imports[cls_name]
                        return CallRef("import", mod, f"{orig}.{attr}")
                    return None
        # module alias: alias(.sub)*.fn(...)
        dotted = ".".join(chain[:-1])
        for alias, mod in self.mod_aliases.items():
            if dotted == alias:
                return CallRef("import", mod, attr)
            if dotted.startswith(alias + "."):
                sub = dotted[len(alias) + 1:]
                return CallRef("import", f"{mod}.{sub}", attr)
        return None

    def _class_name_of(self, node: ast.expr) -> str | None:
        """``TraceRecorder(...)`` / annotation ``rd: RankLocalData``."""
        if isinstance(node, ast.Call):
            chain = _chain(node.func)
        else:
            chain = _chain(node)
        if chain is None:
            return None
        name = chain[-1] if len(chain) > 1 else chain[0]
        if name in self.facts.classes or (name in self.from_imports
                                          and name[:1].isupper()):
            return name
        return None

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.mod_aliases[local] = target
            if alias.name == "numpy":
                self.np_aliases.add(alias.asname or "numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        for alias in node.names:
            local = alias.asname or alias.name
            # ``from repro import kernels`` imports a module: treat as
            # a module alias AND a from-import; resolution prefers the
            # alias for dotted calls and the from-import for bare ones.
            self.mod_aliases.setdefault(local, f"{mod}.{alias.name}"
                                        if mod else alias.name)
            self.from_imports[local] = (mod, alias.name)
        self.generic_visit(node)

    # -- definitions ---------------------------------------------------
    def _qualname(self, name: str) -> str:
        if self._cls_stack and not self._fn_stack:
            return f"{self._cls_stack[-1]}.{name}"
        if self._fn_stack:
            return f"{self._fn_stack[-1].qual}.<locals>.{name}"
        return name

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._fn_stack and not self._cls_stack:
            self.facts.classes[node.name] = [
                s.name for s in node.body
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
        self._cls_stack.append(node.name)
        self.generic_visit(node)
        self._cls_stack.pop()

    def _visit_funcdef(self, node) -> None:
        qual = self._qualname(node.name)
        if not self._fn_stack and not self._cls_stack:
            self.facts.top_defs[node.name] = node.lineno
            self._note_line(node.lineno)
        fn = FunctionFacts(
            qual=qual, name=node.name, lineno=node.lineno,
            col=node.col_offset,
            cls=self._cls_stack[-1] if self._cls_stack else None)
        self.facts.functions[qual] = fn
        a = node.args
        params = [p.arg for p in
                  a.posonlyargs + a.args + a.kwonlyargs]
        if a.vararg:
            params.append(a.vararg.arg)
        if a.kwarg:
            params.append(a.kwarg.arg)
        types: dict[str, str] = {}
        for p in a.posonlyargs + a.args + a.kwonlyargs:
            if p.annotation is not None:
                cls_name = self._class_name_of(p.annotation)
                if cls_name:
                    types[p.arg] = cls_name
        self._fn_stack.append(fn)
        self._locals_stack.append(set(params))
        self._types_stack.append(types)
        self.generic_visit(node)
        self._types_stack.pop()
        self._locals_stack.pop()
        self._fn_stack.pop()

    visit_FunctionDef = _visit_funcdef
    visit_AsyncFunctionDef = _visit_funcdef

    # -- module/header constants and state -----------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._fn_stack and not self._cls_stack:
            for t in node.targets:
                if isinstance(t, ast.Name):
                    self.module_level_names.add(t.id)
                    self._record_hdr_const(t.id, node)
        if self._fn_stack:
            for t in node.targets:
                if isinstance(t, ast.Name):
                    self._locals_stack[-1].add(t.id)
                    cls_name = self._class_name_of(node.value)
                    if cls_name:
                        self._types_stack[-1][t.id] = cls_name
                elif isinstance(t, ast.Tuple):
                    for e in t.elts:
                        if isinstance(e, ast.Name):
                            self._locals_stack[-1].add(e.id)
            self._check_store_targets(node.targets, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._fn_stack and not self._cls_stack:
            if isinstance(node.target, ast.Name):
                self.module_level_names.add(node.target.id)
                self._record_hdr_const(node.target.id, node)
        if self._fn_stack:
            if isinstance(node.target, ast.Name):
                self._locals_stack[-1].add(node.target.id)
            self._check_store_targets([node.target], node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._fn_stack:
            self._check_store_targets([node.target], node)
        self.generic_visit(node)

    def _record_hdr_const(self, name: str, node) -> None:
        value = getattr(node, "value", None)
        if not isinstance(value, ast.Constant) \
                or not isinstance(value.value, int) \
                or isinstance(value.value, bool):
            return
        if _SLOT_RE.match(name):
            self.facts.hdr_consts[name] = value.value
            self.facts.hdr_const_lines[name] = node.lineno
            self._note_line(node.lineno)
        elif name == _HDR_SLOTS_NAME:
            self.facts.hdr_slots = value.value

    def _is_local(self, name: str) -> bool:
        return any(name in scope for scope in self._locals_stack)

    def _check_store_targets(self, targets, node) -> None:
        """Subscript/attribute stores on module-level names are
        module-state mutations; header-slot subscript stores are slot
        writes."""
        for t in targets:
            if isinstance(t, ast.Subscript):
                self._check_slot_access(t)
                base = t.value
                while isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Name) \
                        and base.id in self.module_level_names \
                        and not self._is_local(base.id):
                    self._impurity("module-mutation",
                                   f"writes module-level '{base.id}'", node)
            elif isinstance(t, ast.Attribute):
                chain = _chain(t)
                if chain and len(chain) == 2 \
                        and chain[0] in self.module_level_names \
                        and not self._is_local(chain[0]):
                    self._impurity("module-mutation",
                                   f"writes module-level '{chain[0]}."
                                   f"{chain[1]}'", node)

    def visit_Global(self, node: ast.Global) -> None:
        if self._fn_stack:
            self._impurity("global-rebind",
                           f"rebinds module-level "
                           f"{', '.join(repr(n) for n in node.names)}",
                           node)
        self.generic_visit(node)

    # -- subscripts (header slots) -------------------------------------
    def _check_slot_access(self, node: ast.Subscript) -> None:
        idx = node.slice
        if isinstance(idx, ast.Name) and _SLOT_RE.match(idx.id) \
                and self._fn is not None:
            entry = [idx.id, node.lineno, node.col_offset]
            if isinstance(node.ctx, ast.Load):
                self._fn.slot_reads.append(entry)
            else:
                self._fn.slot_writes.append(entry)
            self._note_line(node.lineno)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check_slot_access(node)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._add_call(self._resolve_call(node))
        chain = _chain(node.func)
        tail = chain[-1] if chain else None

        # Worker entry points: Process(target=f), register_at_fork(
        # after_in_child=f).
        if tail in _ENTRY_CALLS:
            for kw in node.keywords:
                if kw.arg == _ENTRY_CALLS[tail]:
                    ref = self._resolve_entry_expr(kw.value)
                    if ref is not None and ref.kind == "local":
                        if ref.name not in self.facts.worker_entries:
                            self.facts.worker_entries.append(ref.name)

        if self._fn is not None and chain is not None:
            self._record_impure_call(node, chain)
        self.generic_visit(node)

    def _record_impure_call(self, node: ast.Call, chain: list[str]) -> None:
        base, tail = chain[0], chain[-1]
        # clocks
        if len(chain) == 2 and base == "time" and tail in _CLOCKS:
            self._impurity("clock", f"time.{tail}", node)
        # unseeded RNG: legacy np.random.* and the stdlib random module
        if len(chain) == 3 and base in self.np_aliases \
                and chain[1] == "random" and tail not in _RNG_OK:
            self._impurity("rng", ".".join(chain), node)
        if len(chain) == 2 and base == "random" \
                and self.mod_aliases.get("random") == "random":
            self._impurity("rng", f"random.{tail}", node)
        # fork-unsafe resources
        if tail in _RESOURCE_CTORS:
            self._impurity("resource", f"{tail}(...)", node)
        elif tail == "SharedMemory":
            for kw in node.keywords:
                if kw.arg == "create" \
                        and isinstance(kw.value, ast.Constant) \
                        and kw.value.value:
                    self._impurity("resource", "SharedMemory(create=True)",
                                   node)
        elif base == "subprocess" and len(chain) == 2:
            self._impurity("resource", ".".join(chain), node)
        elif chain == ["open"] and self._open_writes(node):
            self._impurity("resource", "open(..., write mode)", node)
        # mutating container method on a module-level name
        if len(chain) == 2 and tail in _MUTATORS \
                and base in self.module_level_names \
                and not self._is_local(base):
            self._impurity("module-mutation",
                           f"mutates module-level '{base}' via "
                           f".{tail}()", node)

    @staticmethod
    def _open_writes(node: ast.Call) -> bool:
        mode = None
        if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            mode = node.args[1].value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = kw.value.value
        return isinstance(mode, str) and bool(_WRITE_MODES.search(mode))


def extract_facts(module: ModuleInfo) -> ModuleFacts:
    """Summarise a parsed module (empty facts when it does not parse)."""
    ex = _Extractor(module)
    if module.tree is not None:
        ex.visit(module.tree)
    return ex.facts
