"""Nothing in ``src/`` without a caller.

A module stays only if a paper artefact (``repro.experiments``), a tool
(``lint``, ``kernels``, ``sanitize``, the service), an example or the
benchmark of record imports it, directly or through other modules.  A
name imported from a package is followed through the ``__init__``
re-export to the module that defines it, so being re-exported is not
being called.
"""

import ast
import functools
from fnmatch import fnmatch
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
MODULES = {".".join(p.relative_to(SRC).with_suffix("").parts)
           .removesuffix(".__init__"): p
           for p in (SRC / "repro").rglob("*.py")}
ROOTS = [MODULES[m] for m in (
    "repro.experiments.__main__", "repro.lint.__main__",
    "repro.kernels.__main__", "repro.service", "repro.sanitize")]
ROOTS += sorted((REPO / "examples").glob("*.py"))
ROOTS += sorted((REPO / "benchmarks" / "e2e").glob("*.py"))

#: unreached on purpose, each with its reason
ALLOWED = {
    "repro.solvers._reference": "R001 oracle, paired with tests",
    "repro.sparse.spmv": "R001 oracle, paired with tests",
    "repro.lint.rules.*": "plugins: the manifest imports them for the "
                          "@rule side effect, which reads no name",
    "repro.lint.astutil": "helper of the rule plugins",
}


@functools.cache
def _imports(path):
    """``(module, name, bound_as, used)`` per import; ``name`` is None
    for ``import m``, ``used`` says the file's own code reads the name."""
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.name, None, None, True) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            out += [(node.module, a.name, a.asname or a.name,
                     (a.asname or a.name) in used) for a in node.names]
    return out


def _reached():
    seen = {m for m, p in MODULES.items() if p in ROOTS}
    todo = [(m, n) for root in ROOTS for m, n, *_ in _imports(root)]
    while todo:
        mod, name = todo.pop()
        if name and f"{mod}.{name}" in MODULES:      # from pkg import submodule
            mod, name = f"{mod}.{name}", None
        path = MODULES.get(mod)
        if path is None:                             # stdlib / third party
            continue
        package = path.name == "__init__.py"
        if name and package:
            forwarded = [(m, n) for m, n, bound, _ in _imports(path)
                         if bound == name]
            if forwarded:                            # a re-export: follow it
                todo += forwarded
                continue
        if mod not in seen:
            seen.add(mod)
            # a package reached as a module (``import repro``) pulls in
            # what its own code uses, not what it merely re-exports
            todo += [(m, n) for m, n, _, used in _imports(path)
                     if used or not package]
    # importing a.b.c runs a/__init__ and a.b/__init__ on the way
    return seen | {m.rsplit(".", k)[0] for m in seen
                   for k in range(1, m.count(".") + 1)}


def test_every_module_has_a_caller():
    unreached = set(MODULES) - _reached()
    assert {m for m in unreached
            if not any(fnmatch(m, pat) for pat in ALLOWED)} == set()
    stale = {pat for pat in ALLOWED
             if not any(fnmatch(m, pat) for m in unreached)}
    assert stale == set(), "allow-list entry no longer needed"


#: where a paper artefact, the service, a named problem, an example or a
#: benchmark chooses solver settings
SETTERS = [SRC / "repro" / "experiments", SRC / "repro" / "service",
           SRC / "repro" / "euler" / "problems.py", REPO / "examples",
           REPO / "benchmarks"]

#: config fields nobody sets on purpose, each with its reason
UNSET_FIELDS = {
    "cfl_max": "numerical guard, one value by design",
    "cfl_min": "numerical guard, one value by design",
    "absolute_tol": "numerical guard, one value by design",
    "orthogonalization": "reached as gmres(orthog=) by "
                         "bench_ablation_kernels.py",
}


def _keywords_set():
    """Names passed by keyword (``f(x=...)``, ``dict(x=...)``) with a
    value of the caller's choosing: ``x=cfg.x`` only hands one on."""
    files = [p for root in SETTERS
             for p in ([root] if root.is_file() else root.rglob("*.py"))
             if not p.name.startswith("test_")]
    calls = [node for p in files for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Call)]
    return {kw.arg for call in calls for kw in call.keywords
            if kw.arg and not (isinstance(kw.value, ast.Attribute)
                               and kw.value.attr == kw.arg)}


def test_every_config_field_has_a_setter():
    """A knob stays only while some artefact, service request, example
    or benchmark turns it; one that only tests reach is a fork nobody
    runs (``SolverConfig.threads``, deleted in PR 20)."""
    from dataclasses import fields

    from repro.core.config import (KrylovConfig, PreconditionerConfig,
                                   SolverConfig)
    from repro.solvers.ptc import PTCConfig

    knobs = {f.name for cls in (SolverConfig, KrylovConfig,
                                PreconditionerConfig, PTCConfig)
             for f in fields(cls)}
    unset = knobs - _keywords_set()
    assert unset - set(UNSET_FIELDS) == set()
    assert set(UNSET_FIELDS) - unset == set(), \
        "allow-list entry no longer needed"


def test_design_inventory_names_every_package():
    """DESIGN.md section 3 is the map of ``src/repro``; a package it
    does not name is one a reader cannot find."""
    design = (REPO / "DESIGN.md").read_text()
    section = design.split("## 3. Package inventory")[1].split("\n## ")[0]
    packages = {p.parent.name
                for p in (SRC / "repro").rglob("__init__.py")} - {"repro"}
    assert {p for p in packages if f"{p}/" not in section} == set()
