"""R006 — compiled-backend declarations.

Repo contract (mirrors R001's oracle pairing, one tier down): a
``# lint: compiled`` module holds optional cffi-C twins of numpy
kernels.  Because the compiled code itself is opaque to this linter,
the module must make its equivalence and degradation story explicit:

* ``__oracles__`` — a dict literal mapping every public callable the
  backend exposes (top-level functions and the public methods of
  public classes) to the dotted path of the numpy oracle it must
  match;
* ``__fallback__`` — a non-empty string literal naming the importable
  fallback path taken when the backend cannot build (the reason
  ``engine="compiled"`` is a request, never a requirement).

A public callable with no ``__oracles__`` entry is a compiled kernel
making no equivalence claim — exactly the silent-drift risk the oracle
discipline exists to prevent.  Suppress a deliberate exception with
``compiled-ok`` on the ``def`` line.
"""

from __future__ import annotations

import ast

from repro.lint.model import ModuleInfo
from repro.lint.registry import Rule, rule

__all__ = ["CompiledDeclarations"]


def _module_assign(tree: ast.Module | None, name: str) -> ast.Assign | None:
    """The top-level ``name = ...`` assignment, if present."""
    if tree is None:
        return None
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name) and tgt.id == name:
                    return node
    return None


def _literal_str_dict(node: ast.expr) -> dict[str, str] | None:
    """Decode a ``{"k": "v", ...}`` dict literal; None when it isn't one."""
    if not isinstance(node, ast.Dict):
        return None
    out: dict[str, str] = {}
    for k, v in zip(node.keys, node.values):
        if (not isinstance(k, ast.Constant) or not isinstance(k.value, str)
                or not isinstance(v, ast.Constant)
                or not isinstance(v.value, str)):
            return None
        out[k.value] = v.value
    return out


def _public_callables(tree: ast.Module | None):
    """Yield (name, lineno) of every public top-level function and every
    public method of a public top-level class."""
    if tree is None:
        return
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield item.name, item.lineno


@rule
class CompiledDeclarations(Rule):
    id = "R006"
    name = "compiled-declarations"
    summary = ("every '# lint: compiled' backend declares its numpy "
               "oracle map (__oracles__) and fallback (__fallback__), "
               "covering each public callable")

    def check_module(self, module: ModuleInfo):
        if not module.is_compiled:
            return
        counts: dict = {}
        tree = module.tree

        oracles_node = _module_assign(tree, "__oracles__")
        oracles: dict[str, str] | None = None
        if oracles_node is None:
            yield module.finding(
                self.id, 1, 0,
                "compiled module does not declare '__oracles__' — map "
                "every public callable to its numpy oracle's dotted "
                "path", counts)
        else:
            oracles = _literal_str_dict(oracles_node.value)
            if oracles is None:
                yield module.finding(
                    self.id, oracles_node.lineno, oracles_node.col_offset,
                    "'__oracles__' must be a literal {str: str} dict of "
                    "callable -> dotted numpy-oracle path", counts)
            else:
                for key, target in sorted(oracles.items()):
                    if "." not in target:
                        yield module.finding(
                            self.id, oracles_node.lineno,
                            oracles_node.col_offset,
                            f"__oracles__[{key!r}] = {target!r} is not a "
                            f"dotted module path", counts)

        fb = _module_assign(tree, "__fallback__")
        if (fb is None or not isinstance(fb.value, ast.Constant)
                or not isinstance(fb.value.value, str)
                or not fb.value.value.strip()):
            yield module.finding(
                self.id, fb.lineno if fb is not None else 1, 0,
                "compiled module does not declare '__fallback__' — a "
                "non-empty string naming the importable numpy fallback "
                "path", counts)

        if oracles is None:
            return
        for name, lineno in _public_callables(tree):
            if name in oracles or module.suppressed(self.id, lineno):
                continue
            yield module.finding(
                self.id, lineno, 0,
                f"public callable '{name}' has no '__oracles__' entry — "
                f"declare its numpy oracle or mark the line "
                f"'compiled-ok'", counts)
