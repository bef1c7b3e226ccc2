"""The pluggable rule registry.

A rule is a class with a unique ``id`` (``R00x``), registered with the
:func:`rule` decorator.  The engine instantiates every registered rule
once per run and drives two hooks:

``check_module(module)``
    Per-module pass; yields :class:`~repro.lint.model.Finding`.

``finalize(project)``
    Optional whole-project pass after every module was seen — for
    cross-module invariants (R001 cross-references ``tests/``; the
    R007/R008 parallel-safety rules walk the project call graph).

Every rule declares a ``scope``:

``"module"``
    ``check_module`` findings depend only on that one file's content.

``"project"``
    Findings depend on cross-module state.  The rule does all its
    work in ``finalize`` over :class:`ProjectInfo` — in particular over
    the per-module :class:`~repro.lint.facts.ModuleFacts` and the
    derived :class:`~repro.lint.callgraph.CallGraph`.

Adding a rule is: subclass :class:`Rule`, decorate, import the module
from :mod:`repro.lint.rules` (the package ``__init__`` is the plugin
manifest).  Nothing else to wire — the CLI, baseline machinery, and
``--select`` filtering all iterate the registry.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.lint.model import Finding, ModuleInfo

__all__ = ["Rule", "rule", "all_rules", "get_rule", "known_rule_ids",
           "ProjectInfo"]

_REGISTRY: dict[str, type["Rule"]] = {}


class Rule:
    """Base class: one invariant, one id, two hooks, one scope."""

    id: str = ""
    name: str = ""
    summary: str = ""
    scope: str = "module"           # "module" | "project"

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def finalize(self, project: "ProjectInfo") -> Iterable[Finding]:
        return ()


def rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator registering a :class:`Rule` subclass by id."""
    if not cls.id or not cls.id.startswith("R"):
        raise ValueError(f"rule {cls.__name__} needs an 'R00x' id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    if cls.scope not in ("module", "project"):
        raise ValueError(f"rule {cls.id}: scope must be 'module' or "
                         f"'project', not {cls.scope!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> Iterator[Rule]:
    """Fresh instances of every registered rule, in id order."""
    from repro.lint import rules as _rules  # noqa: F401  (plugin manifest)
    for rid in sorted(_REGISTRY):
        yield _REGISTRY[rid]()


def get_rule(rid: str) -> Rule:
    from repro.lint import rules as _rules  # noqa: F401
    return _REGISTRY[rid]()


def known_rule_ids() -> list[str]:
    """Registered rule ids plus the engine's own R000, sorted."""
    from repro.lint import rules as _rules  # noqa: F401
    return sorted(set(_REGISTRY) | {"R000"})


class ProjectInfo:
    """Everything ``finalize`` hooks may need across modules."""

    def __init__(self, modules: list[ModuleInfo],
                 test_names: set[str] | None = None,
                 tests_seen: bool = False,
                 facts: list | None = None) -> None:
        #: One parsed module per analysed file.
        self.modules = modules
        #: Every identifier (names, attributes, imported symbols) that
        #: appears in the discovered test modules.
        self.test_names = test_names if test_names is not None else set()
        #: False when no test directory was found/given — rules relax
        #: "exercised by tests" requirements rather than flag everything.
        self.tests_seen = tests_seen
        #: One :class:`~repro.lint.facts.ModuleFacts` per analysed file
        #: — the project pass's view.
        self.facts = facts if facts is not None else []
        self._callgraph = None

    @property
    def callgraph(self):
        """Lazily built project call graph over ``facts``."""
        if self._callgraph is None:
            from repro.lint.callgraph import build_call_graph
            self._callgraph = build_call_graph(self.facts)
        return self._callgraph
