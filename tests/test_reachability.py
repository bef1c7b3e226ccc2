"""Nothing in ``src/`` without a caller.

A module stays only if a paper artefact (``repro.experiments``), a tool
(``kernels``, ``sanitize``, the service), an example or the benchmark
of record imports it, directly or through other modules.  A
name imported from a package is followed through the ``__init__``
re-export to the module that defines it, so being re-exported is not
being called.  The same holds name by name: a public function, class
or method stays only while code outside ``tests/`` uses it; and knob
by knob: a defaulted parameter or dataclass field stays only while
code outside ``tests/`` sets it.
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

#: unreached modules, unused names and unset knobs on purpose, each
#: with its reason
ALLOWED = {
    "repro.solvers._reference": "gmres's oracle, paired with tests",
    "*_ref": "numpy oracles a test compares the fast twin against",
    "*_ref.*": "an oracle's parameters: a test states the case it pins",
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
    "repro.sanitize.statehash.capture.name":
        "opt-in REPRO_SANITIZE API (DESIGN.md): names a trail by hand",
    "repro.experiments.__main__.main.argv":
        "the CLI's argv: a shell passes sys.argv, the CLI tests a list",
    "repro.service.service.SolveRequest.deadline_s":
        "the service's documented admission contract (ROADMAP item 7(c))",
}
ALLOWED |= dict.fromkeys([f"repro.experiments.{k}" for k in (
    "table3.run_table3.size", "table3.run_table3.max_steps",
    "table5.run_table5.size", "table5.run_table5.node_counts",
    "fig5.run_fig5.size", "fig5.run_fig5.max_steps",
    "fig5.run_fig5.cfl0_values",
    "eqbounds.run_eq_bounds.n", "eqbounds.run_eq_bounds.bandwidths")],
    "artefact sweep size: tier-1 shrinks the mesh, the solve or the sweep")


def _matches(name, pat, knob=False):
    """A knob ``<callable>.<parameter>`` matches part by part, so
    ``*_ref`` names only oracle defs and ``*_ref.*`` their parameters."""
    if knob:
        return "." in pat and all(map(fnmatch, name.rsplit(".", 1),
                                      pat.rsplit(".", 1)))
    return fnmatch(name, pat)


def _allowed(name, knob=False):
    return any(_matches(name, pat, knob) for pat in ALLOWED)


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


def _root(node):
    """The name an attribute chain starts from: ``np`` for ``np.a.b``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@functools.cache
def _foreign(tree):
    """Names a file binds to a module or object from outside ``repro``:
    an attribute read on one (``np.eye``) is never a read of ours."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {(a.asname or a.name).split(".")[0] for a in node.names
                    if not a.name.startswith("repro")}
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and not node.module.startswith("repro")):
            out |= {a.asname or a.name for a in node.names}
    return out


def _uses(tree, aliases, foreign):
    """How often each identifier is read in ``tree`` as a name and as an
    attribute: ``(names, attributes)``; a name bound by ``from m import
    x as y`` counts as ``x``."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[aliases.get(node.id, node.id)] += 1
        elif isinstance(node, ast.Attribute) and _root(node.value) not in foreign:
            attributes[node.attr] += 1
    return names, attributes


@functools.cache
def _aliases(tree):
    return {a.asname: a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names if a.asname}


@functools.cache
def _imported(tree):
    """The names a file imports from a module (``from m import x``)."""
    return {a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for a in node.names}


def _public(name):
    return not name.startswith("_")


@functools.cache
def _tree(path):
    return ast.parse(path.read_text())


def _sources():
    """``(module, tree)`` of every module of ``src/repro`` outside
    ``ALLOWED``."""
    return tuple((m, _tree(p)) for m, p in MODULES.items()
                 if not _allowed(m))


@functools.cache
def _callers():
    """``(module or None, path, tree)`` of every file whose code counts
    as a use: ``src/repro`` outside ``ALLOWED``, the examples and the
    benchmark of record."""
    paths = [(m, p) for m, p in MODULES.items() if not _allowed(m)]
    paths += [(None, p) for p in sorted((REPO / "examples").glob("*.py"))]
    paths += [(None, p) for p in
              sorted((REPO / "benchmarks" / "e2e").glob("*.py"))]
    return [(m, p, _tree(p)) for m, p in paths]


def _sees(file_module, tree, module, name):
    """A bare identifier in a file can name a definition only in the
    defining module or in a file that imports that name."""
    return file_module == module or name in _imported(tree)


@functools.cache
def _public_defs():
    """``(dotted name, identifier, is a method, defining module, reads
    inside its own body)`` for every public top-level function and class
    in ``src/repro`` and every public method of those classes."""
    out = []
    for mod, tree in _sources():
        aliases, foreign = _aliases(tree), _foreign(tree)
        defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
        for node in tree.body:
            if not (isinstance(node, defs) and _public(node.name)):
                continue
            out.append((f"{mod}.{node.name}", node.name, False, mod,
                        _reads(_uses(node, aliases, foreign), node.name,
                               False)))
            if isinstance(node, ast.ClassDef):
                out += [(f"{mod}.{node.name}.{m.name}", m.name, True, mod,
                         _reads(_uses(m, aliases, foreign), m.name, True))
                        for m in node.body
                        if isinstance(m, defs[:2]) and _public(m.name)]
    return out


def _reads(uses, name, method):
    """A method is reached only as an attribute (``obj.name``); a
    function or class also by its bare name."""
    names, attributes = uses
    return attributes[name] + (0 if method else names[name])


def _unused_names():
    """Public names in ``src/repro`` that no code outside ``tests/``
    reads, their own bodies aside.  Matching the identifier is
    conservative: dead code that shares a name with live code in a file
    that can see it passes, and only a name reached through a
    ``getattr`` string can be flagged while live."""
    reads = Counter()
    for file_module, _, tree in _callers():
        names, attributes = _uses(tree, _aliases(tree), _foreign(tree))
        for dotted, name, method, module, _ in _public_defs():
            reads[dotted] += attributes[name]
            if not method and _sees(file_module, tree, module, name):
                reads[dotted] += names[name]
    return {dotted for dotted, _, _, _, own in _public_defs()
            if reads[dotted] <= own}


def test_every_public_name_has_a_caller():
    """A function, class or method only its own tests call is not part
    of the reproduction: it is deleted, moved into ``tests/``, or listed
    in ``ALLOWED`` with the reason it stays."""
    assert {n for n in _unused_names() if not _allowed(n)} == set()


_FUNCS = ast.FunctionDef, ast.AsyncFunctionDef


def _last(node):
    """The identifier a name or attribute ends in: ``y`` for ``x.y``."""
    return getattr(node, "attr", getattr(node, "id", None))


def _decorators(node):
    return {_last(d.func if isinstance(d, ast.Call) else d)
            for d in node.decorator_list}


def _signature(fn, bound):
    """``(positional names, {name: default expression or None})`` of a
    function, without the bound ``self`` / ``cls``."""
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args][1 if bound else 0:]
    defaults = [None] * (len(names) - len(a.defaults)) + a.defaults
    params = dict(zip(names, defaults))
    params |= {p.arg: d for p, d in zip(a.kwonlyargs, a.kw_defaults)}
    return names, params


def _fields(cls):
    """``{name: default expression or None}`` of a dataclass's or named
    tuple's ``init=True`` fields, in order."""
    out = {}
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            continue
        if "ClassVar" in ast.dump(node.annotation):
            continue
        value = node.value
        if (isinstance(value, ast.Call) and _root(value.func) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords)):
            continue
        out[node.target.id] = value
    return out


class _Callable:
    """One callable a call site can reach by name: a function, a method,
    or a class (its ``__init__`` or its dataclass fields)."""

    def __init__(self, dotted, kind, module, public):
        self.dotted, self.kind, self.module = dotted, kind, module
        self.ident, self.public = dotted.rsplit(".", 1)[1], public
        self.positional = []    # parameter names in call order
        self.owner = {}         # parameter name -> dotted owner
        self.default = {}       # parameter name -> default or None
        self.fields = False     # a dataclass: its fields are knobs too
        self.splat = False      # takes ``**kw``: other keywords land there

    def key(self, name):
        return f"{self.owner[name]}.{name}"


@functools.cache
def _callables(sources):
    """Every top-level function, method and class of ``sources``, and
    ``{id(FunctionDef): owner dotted name}`` of the functions whose
    parameters are knobs."""
    out, owners, classes = [], {}, {}

    def record(mod, dotted, kind, public, fn, bound=False):
        rec = _Callable(dotted, kind, mod, public)
        rec.positional, rec.default = _signature(fn, bound)
        rec.owner = dict.fromkeys(rec.default, dotted)
        rec.splat = fn.args.kwarg is not None
        owners[id(fn)] = dotted
        out.append(rec)

    for mod, tree in sources:
        for node in tree.body:
            if isinstance(node, _FUNCS):
                record(mod, f"{mod}.{node.name}", "function",
                       _public(node.name), node)
            elif isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append((mod, node))
                for m in node.body:
                    if isinstance(m, _FUNCS) and m.name != "__init__":
                        record(mod, f"{mod}.{node.name}.{m.name}", "method",
                               _public(node.name) and _public(m.name), m,
                               "staticmethod" not in _decorators(m))

    def init(mod, node):
        """``(positional, owner, default)`` of calling class ``node``."""
        dotted = f"{mod}.{node.name}"
        for m in node.body:
            if isinstance(m, _FUNCS) and m.name == "__init__":
                owners[id(m)] = dotted
                names, params = _signature(m, True)
                return names, dict.fromkeys(params, dotted), params, False
        positional, owner, default = [], {}, {}
        for base in node.bases:
            found = sorted(classes.get(_last(base), ()),
                           key=lambda c: c[0] != mod)
            if found:
                positional, owner, default, _ = init(*found[0])
                break
        tabular = ("dataclass" in _decorators(node)
                   or any(_last(b) == "NamedTuple" for b in node.bases))
        if tabular:
            own = _fields(node)
            positional = positional + [n for n in own if n not in owner]
            owner = owner | dict.fromkeys(own, dotted)
            default = default | own
        return positional, owner, default, tabular

    for group in classes.values():
        for mod, node in group:
            rec = _Callable(f"{mod}.{node.name}", "class", mod,
                            _public(node.name))
            rec.positional, rec.owner, rec.default, rec.fields = init(
                mod, node)
            out.append(rec)
    return out, owners


def _knobs(sources=None):
    """``{knob: public}`` over every defaulted parameter and field,
    named ``<module>.<callable>.<parameter>``."""
    out = {}
    for rec in _callables(sources or _sources())[0]:
        for name, default in rec.default.items():
            if default is not None and rec.owner[name] == rec.dotted:
                out[rec.key(name)] = rec.public
    return out


def _literal(node):
    """``(type, value)`` of a literal expression, else ``node`` itself,
    which equals no other."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError):
        return node
    return type(value), value


class _Setters(ast.NodeVisitor):
    """Walks one caller file and records which knobs it sets: ``set``
    outright, or ``edges`` (source, knob) when it only forwards a value
    that is set if the source is."""

    def __init__(self, file_module, path, tree, index, owners):
        self.file_module, self.tree = file_module, tree
        self.bench = file_module is None and "benchmarks" in path.parts
        self.index, self.owners = index, owners
        self.aliases, self.foreign = _aliases(tree), _foreign(tree)
        self.set, self.edges = set(), set()
        self.scopes, self.classes = [], []    # enclosing defs / ClassDefs
        self.simple = {}        # f = g, for f in (g, h), for _, f in ((_, g),)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                self.alias(node.targets[0], [node.value])
            elif isinstance(node, ast.For):
                self.alias(node.target, getattr(node.iter, "elts", []))

    def alias(self, target, values):
        """Records ``target`` as naming each of ``values`` when all are
        names or attributes; a tuple target takes the values' columns."""
        if isinstance(target, ast.Tuple):
            rows = [v.elts for v in values if isinstance(v, ast.Tuple)
                    and len(v.elts) == len(target.elts)]
            if len(rows) == len(values):
                for t, column in zip(target.elts, zip(*rows)):
                    self.alias(t, column)
            return
        values = [w for v in values for w in (
            (v.body, v.orelse) if isinstance(v, ast.IfExp) else (v,))]
        if values and all(isinstance(v, (ast.Name, ast.Attribute))
                          for v in values):
            self.simple.setdefault(_last(target), []).extend(values)

    def resolve(self, expr, seen=()):
        """The callables ``expr`` can name; a call also reaches those its
        simple aliases name."""
        out = []
        if isinstance(expr, ast.Name):
            if expr.id == "cls" and self.classes:
                return self.own_class()
            ident = self.aliases.get(expr.id, expr.id)
            out = [r for r in self.index.get(ident, ())
                   if r.kind != "method"
                   and _sees(self.file_module, self.tree, r.module, ident)]
        elif isinstance(expr, ast.Attribute):
            if _root(expr.value) in self.foreign:
                return []
            out = list(self.index.get(expr.attr, ()))
        ident = _last(expr)
        for value in self.simple.get(ident, ()):
            if id(value) not in seen:
                out += self.resolve(value, seen + (id(value),))
        return out

    def source(self, name, value, keyword):
        """Where the value of argument ``name`` comes from: None when it
        is set here, else the knob (or ``*.name``) it forwards: ``x=y``
        forwards an enclosing def's parameter ``y``."""
        if isinstance(value, ast.Name):
            for fn, params in reversed(self.scopes):
                if value.id in params:
                    owner, y = self.owners.get(id(fn)), value.id
                    return f"{owner}.{y}" if owner and params[y] is not None else None
            return None
        if keyword and isinstance(value, ast.Attribute) and value.attr == name:
            return f"*.{name}"
        return None

    def bind(self, rec, name, value, keyword):
        if name in rec.owner:
            key, default = rec.key(name), rec.default[name]
        elif keyword and rec.splat:         # lands in the callee's ``**kw``
            key, default = f"{rec.dotted}.**{name}", None
        else:
            return
        src = None if self.bench else self.source(name, value, keyword)
        if src is not None:
            self.edges.add((src, key))
        elif self.bench or _literal(value) != _literal(default):
            self.set.add(key)

    def visit_FunctionDef(self, node):
        _, params = _signature(node, False)
        a = node.args
        params |= {p.arg: None for p in (a.vararg, a.kwarg) if p}
        self.scopes.append((node, params))
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.scopes.append((node, {p.arg: None for p in ast.walk(node.args)
                                   if isinstance(p, ast.arg)}))
        self.generic_visit(node)
        self.scopes.pop()

    def visit_ClassDef(self, node):
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node):
        func, args = node.func, list(node.args)
        if _last(func) == "replace" and _root(func) in ("replace", "dataclasses"):
            self.call([r for rs in self.index.values() for r in rs
                       if r.fields], [], node.keywords)
        elif isinstance(func, ast.Attribute) and func.attr == "__init__":
            if isinstance(func.value, ast.Call):       # super().__init__
                bases = self.classes[-1].bases if self.classes else ()
                callees = [r for b in bases for r in self.resolve(b)
                           if r.kind == "class"]
            else:                                       # Base.__init__(self)
                callees = [r for r in self.resolve(func.value)
                           if r.kind == "class"]
                args = args[1:]
            self.call(callees, args, node.keywords)
        elif isinstance(func, ast.Call) and getattr(
                func.func, "id", None) == "type" and self.classes:
            self.call(self.own_class(), args, node.keywords)
        else:
            self.call(self.resolve(func), args, node.keywords)
        self.generic_visit(node)

    def own_class(self):
        """The enclosing class, as ``cls(...)`` / ``type(self)(...)``
        call it."""
        return [r for r in self.index.get(self.classes[-1].name, ())
                if r.kind == "class"]

    def call(self, callees, args, keywords):
        """``**kw`` handing on the enclosing def's own ``**kw`` forwards
        each keyword like ``x=x``; any other splat sets every knob."""
        fn = self.scopes[-1][0] if self.scopes else None
        owner, star = self.owners.get(id(fn)), getattr(fn and fn.args.kwarg, "arg", 0)
        fwd = [k for k in keywords if k.arg is None and owner and getattr(k.value, "id", 1) == star]
        splat = any(isinstance(a, ast.Starred) for a in args) or any(
            k.arg is None for k in keywords if k not in fwd)
        for rec in callees:
            if splat:                       # ``.**``: all of its ``**kw`` too
                self.set.update([rec.key(n) for n in rec.owner] + [f"{rec.dotted}.**"])
                continue
            for name, value in zip(rec.positional, args):
                self.bind(rec, name, value, False)
            for kw in keywords:
                if kw in fwd:
                    self.edges |= {(f"{owner}.**{n}", rec.key(n))
                                   for n in rec.owner}
                else:
                    self.bind(rec, kw.arg, kw.value, True)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store):
            self.set.update(rec.key(node.attr) for recs in self.index.values()
                            for rec in recs
                            if rec.fields and node.attr in rec.owner)
        self.generic_visit(node)


@functools.cache
def _unset_knobs(sources=None, callers=None):
    """Public knobs of ``sources`` that no file of ``callers`` (by
    default ``src/repro`` and everything outside ``tests/``) sets: a
    keyword, a positional argument at its index, a ``*`` / ``**``
    splat, a call through a simple alias, ``dataclasses.replace`` or an
    attribute store (fields).  A literal equal to the knob's literal
    default sets nothing, except from the benchmark of record.  A
    forwarded ``x=y`` is set only when the caller's own parameter ``y``
    is, a forwarded ``**kw`` only where a call of the caller passes ``x``, and
    ``x=cfg.x`` only when some parameter or field named ``x`` is."""
    recs, owners = _callables(sources or _sources())
    index = {}
    for rec in recs:
        index.setdefault(rec.ident, []).append(rec)
    done, edges = set(), set()
    for file_module, path, tree in callers or _callers():
        setters = _Setters(file_module, path, tree, index, owners)
        setters.visit(tree)
        done |= setters.set
        edges |= setters.edges
    knobs = _knobs(sources)
    # ``x=cfg.x`` hands on what a parameter or field ``x`` holds: set
    # once a required one exists or a knob ``x`` is set
    carried = {n for rec in recs for n, d in rec.default.items()
               if d is None}
    while True:
        carried |= {k.rsplit(".", 1)[1] for k in done if k in knobs}
        new = {d for s, d in edges if d not in done and (
            s in done or s.startswith("*.") and s[2:] in carried
            or "**" in s and s[:s.index("**") + 2] in done)}
        if not new:
            break
        done |= new
    return {k for k, public in knobs.items() if public and k not in done}


def test_every_knob_has_a_setter():
    """A defaulted parameter or dataclass field stays only while code
    outside ``tests/`` sets it.  One only tests turn is a fork nobody
    runs (``SolverConfig.threads``, deleted in PR 20): its default is a
    constant, and the branch only another value reached goes with it."""
    assert {k for k in _unset_knobs() if not _allowed(k, True)} == set()


def test_allow_list_has_no_stale_entry():
    unused = [(n, False) for n in (set(MODULES) - _reached())
              | _unused_names()] + [(k, True) for k in _unset_knobs()]
    stale = {pat for pat in ALLOWED
             if not any(_matches(n, pat, knob) for n, knob in unused)}
    assert stale == set(), "allow-list entry no longer needed"


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
