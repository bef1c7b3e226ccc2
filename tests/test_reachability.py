"""Nothing in ``src/`` without a caller.

A module stays only if a paper artefact (``repro.experiments``), a tool
(``kernels``, ``sanitize``, the service), an example or the benchmark
of record imports it, directly or through other modules.  A
name imported from a package is followed through the ``__init__``
re-export to the module that defines it, so being re-exported is not
being called.  The same holds name by name: a public function, class
or method stays only while code outside ``tests/`` uses it.
"""

import ast
import functools
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
MODULES = {".".join(p.relative_to(SRC).with_suffix("").parts)
           .removesuffix(".__init__"): p
           for p in (SRC / "repro").rglob("*.py")}
ROOTS = [MODULES[m] for m in (
    "repro.experiments.__main__", "repro.kernels.__main__",
    "repro.service", "repro.sanitize")]
ROOTS += sorted((REPO / "examples").glob("*.py"))
ROOTS += sorted((REPO / "benchmarks" / "e2e").glob("*.py"))

#: unreached modules and unused names on purpose, each with its reason
ALLOWED = {
    "repro.solvers._reference": "gmres's oracle, paired with tests",
    "*_ref": "numpy oracles a test compares the fast twin against",
    "repro.memory.cache.CacheSim": "the memory simulator's oracle",
    "repro.sparse.bsr.BSRMatrix.add_block_diagonal":
        "the oracle of the fused Jacobian shift",
    "repro.kernels.capability.invalidate":
        "test hook: forget the backend memo after faking the machine",
    "repro.parallel.procpool.ProcPool.shm_name":
        "test hook: the shm-leak tests look the segment up",
    "repro.parallel.procpool.ProcPool.mat_shm_name":
        "test hook: the shm-leak tests look the segment up",
    "repro.parallel.procpool.ProcPool.closed":
        "test hook: the shm-leak tests read it",
    "repro.sanitize.statehash.capture":
        "opt-in REPRO_SANITIZE API (DESIGN.md), read by hand",
    "repro.sanitize.statehash.first_divergence":
        "opt-in REPRO_SANITIZE API (DESIGN.md), read by hand",
}


def _allowed(name):
    return any(fnmatch(name, pat) for pat in ALLOWED)


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
    assert {m for m in unreached if not _allowed(m)} == set()


def _uses(tree, aliases):
    """How often each identifier is read in ``tree`` as a name and as an
    attribute: ``(names, attributes)``; a name bound by ``from m import
    x as y`` counts as ``x``."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[aliases.get(node.id, node.id)] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def _reads(uses, name, method):
    """A method is reached only as an attribute (``obj.name``); a
    function or class also by its bare name."""
    names, attributes = uses
    return attributes[name] + (0 if method else names[name])


def _aliases(tree):
    return {a.asname: a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names if a.asname}


def _public(name):
    return not name.startswith("_")


@functools.cache
def _public_defs():
    """``(dotted name, identifier, is a method, reads inside its own
    body)`` for every public top-level function and class in
    ``src/repro`` and every public method of those classes."""
    out = []
    for mod, path in MODULES.items():
        if _allowed(mod):
            continue
        tree = ast.parse(path.read_text())
        aliases = _aliases(tree)
        defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
        for node in tree.body:
            if not (isinstance(node, defs) and _public(node.name)):
                continue
            out.append((f"{mod}.{node.name}", node.name, False,
                        _reads(_uses(node, aliases), node.name, False)))
            if isinstance(node, ast.ClassDef):
                out += [(f"{mod}.{node.name}.{m.name}", m.name, True,
                         _reads(_uses(m, aliases), m.name, True))
                        for m in node.body
                        if isinstance(m, defs[:2]) and _public(m.name)]
    return out


def _unused_names():
    """Public names in ``src/repro`` that no code outside ``tests/``
    reads, their own bodies aside.  Matching the bare identifier is
    conservative: dead code that shares a name with live code passes,
    and only a name reached through a ``getattr`` string can be flagged
    while live."""
    callers = [p for m, p in MODULES.items() if not _allowed(m)]
    callers += sorted((REPO / "examples").glob("*.py"))
    callers += sorted((REPO / "benchmarks" / "e2e").glob("*.py"))
    names, attributes = Counter(), Counter()
    for path in callers:
        tree = ast.parse(path.read_text())
        n, a = _uses(tree, _aliases(tree))
        names += n
        attributes += a
    return {dotted for dotted, name, method, own in _public_defs()
            if _reads((names, attributes), name, method) <= own}


def test_every_public_name_has_a_caller():
    """A function, class or method only its own tests call is not part
    of the reproduction: it is deleted, moved into ``tests/``, or listed
    in ``ALLOWED`` with the reason it stays."""
    assert {n for n in _unused_names() if not _allowed(n)} == set()


def test_allow_list_has_no_stale_entry():
    unused = (set(MODULES) - _reached()) | _unused_names()
    stale = {pat for pat in ALLOWED
             if not any(fnmatch(n, pat) for n in unused)}
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


def _attr_calls(path, owners):
    """Names ``n`` of every call ``owner.n(...)`` in ``path`` whose
    owner is a plain name in ``owners``."""
    tree = ast.parse(path.read_text())
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in owners}


def _defs(tree):
    """Names of the functions defined at the top of a parsed module or
    in a class body."""
    return {n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _test_names(path):
    """Every identifier a test module names: variables, attributes and
    imported symbols."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.name.rsplit(".", 1)[-1] for a in node.names}
    return names


def test_every_oracle_has_a_tested_twin():
    """Every public ``NAME_ref`` oracle has its fast twin ``NAME`` in
    the same package, and some test module names both: an oracle with
    no twin is dead weight, and a pair no test names is an equivalence
    claim nobody checks."""
    package_defs = {}
    for path in MODULES.values():
        package_defs.setdefault(path.parent, set()).update(
            _defs(ast.parse(path.read_text())))
    twinless, pairs = set(), set()
    for names in package_defs.values():
        for ref in names:
            if ref.endswith("_ref") and not ref.startswith("_"):
                pair = (ref, ref.removesuffix("_ref"))
                (pairs if pair[1] in names else twinless).add(pair)
    assert twinless == set()
    tested = [_test_names(p) for p in (REPO / "tests").glob("*.py")]
    assert {pair for pair in pairs
            if not any(set(pair) <= names for names in tested)} == set()
    assert pairs, "no oracle found: the scan is broken"


def test_every_compiled_kernel_is_reached():
    """Each compiled kernel is one public ``repro.kernels`` function
    (``backend_for`` and ``resolve_engine`` aside) that checks its
    operands, calls C and reads the status.  Each is a key of the
    package's ``__oracles__`` map, whose dotted paths resolve to the
    numpy oracles it must match, and each is called from ``src/``
    outside the kernels package: a kernel nothing reaches is deleted
    with its oracle entry, not left compiled.  ``CBackend`` is the
    loaded library alone: ``ptr`` is its one public method."""
    from pkgutil import resolve_name

    from repro import kernels

    dispatchers = set(kernels.__all__) - {"backend_for", "resolve_engine"}
    assert dispatchers == set(kernels.__oracles__)
    for paths in kernels.__oracles__.values():
        for oracle in (paths,) if isinstance(paths, str) else paths:
            resolve_name(oracle)
    kdir = SRC / "repro" / "kernels"
    called = set().union(*(
        _attr_calls(p, {"_kernels", "kernels"})
        for p in (SRC / "repro").rglob("*.py") if kdir not in p.parents))
    assert dispatchers - called == set()
    tree = ast.parse((kdir / "cbackend.py").read_text())
    methods = set().union(*(_defs(cls) for cls in tree.body
                            if isinstance(cls, ast.ClassDef)))
    assert {m for m in methods if not m.startswith("_")} == {"ptr"}
