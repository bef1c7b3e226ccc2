"""R001 — oracle pairing.

Repo contract (PRs 1-3): every vectorised kernel keeps its pre-refactor
implementation as a ``*_ref`` oracle, and a test compares the two.  An
oracle without a fast twin is dead weight; a pair nobody tests is an
equivalence claim nobody checks.  For every public top-level
``def NAME_ref`` this rule requires

* a fast twin ``NAME`` defined in the same module or a sibling module
  of the same package (``gmres_ref`` lives in ``solvers/_reference.py``
  while ``gmres`` lives in ``solvers/gmres.py``), and
* both names to appear in at least one discovered test module.

Underscore-private ``_helper_ref`` functions are internal details of a
reference implementation, not public oracles, and are exempt.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath

from repro.lint.model import ModuleInfo
from repro.lint.registry import ProjectInfo, Rule, rule

__all__ = ["OraclePairing"]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@rule
class OraclePairing(Rule):
    id = "R001"
    name = "oracle-pairing"
    summary = ("every public *_ref oracle has a same-package fast twin "
               "and both are exercised by tests")
    scope = "project"

    def finalize(self, project: ProjectInfo):
        # package dir -> {top-level function name -> (module, lineno)}
        defs: dict[str, dict[str, tuple[ModuleInfo, int]]] = {}
        for mod in project.modules:
            bucket = defs.setdefault(str(PurePosixPath(mod.rel).parent), {})
            for node in mod.tree.body if mod.tree is not None else ():
                if isinstance(node, _DEFS):
                    bucket.setdefault(node.name, (mod, node.lineno))

        for pkg, bucket in sorted(defs.items()):
            for name, (mod, lineno) in sorted(bucket.items()):
                if not name.endswith("_ref") or name.startswith("_"):
                    continue
                twin = name[: -len("_ref")]
                if twin not in bucket:
                    yield mod.finding(
                        self.id, lineno, 0,
                        f"oracle '{name}' has no fast twin '{twin}' in "
                        f"package '{pkg}' — vectorise it or fold the "
                        f"oracle into its kernel's module")
                    continue
                if not project.tests_seen:
                    continue
                missing = [n for n in (name, twin)
                           if n not in project.test_names]
                if missing:
                    yield mod.finding(
                        self.id, lineno, 0,
                        f"oracle pair ('{name}', '{twin}') is not "
                        f"exercised by any test module (missing: "
                        f"{', '.join(missing)}) — add an equivalence "
                        f"test")
