"""Every reference the docs make resolves.

README.md and DESIGN.md name library objects (`` `repro.x.y` ``) and
repo paths in backticks; both must exist, or the reader follows a
name into nothing.  The code, the tests, CI and the README cite
ROADMAP items by number; each must be an item of ROADMAP.md.
``benchmarks/e2e/README.md`` belongs to the benchmark's contract and is
not scanned.
"""

import re
from pathlib import Path
from pkgutil import resolve_name

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
DOCS = [REPO / "README.md", REPO / "DESIGN.md"]

#: a span between backticks, on one line
SPAN = re.compile(r"`([^`\n]+)`")
#: a dotted name under ``repro`` at the start of a span
DOTTED = re.compile(r"repro(?:\.\w+)+")
#: "ROADMAP item 7" or "ROADMAP item 7(b)"
CITE = re.compile(r"ROADMAP item (\d+)(?:\(([a-z])\))?")


def _spans():
    for doc in DOCS:
        for span in SPAN.findall(doc.read_text()):
            yield doc.name, span.strip()


def test_backticked_names_resolve():
    """Import the longest importable module prefix, then ``getattr``
    the rest (``pkgutil.resolve_name``)."""
    broken = set()
    for doc, span in _spans():
        name = DOTTED.match(span)
        if name is None:
            continue
        try:
            resolve_name(name.group(0))
        except (ImportError, AttributeError):
            broken.add((doc, name.group(0)))
    assert broken == set()


def _path_root(first):
    """Where a span starting with ``first/`` lives: the repo root or
    ``src/repro`` (``kernels/cbackend.py``), or None if neither has
    such an entry (prose, a URL, a ratio)."""
    for root in (REPO, PACKAGE):
        if first and (root / first).is_dir():
            return root
    return None


def _ignored():
    """The directories ``.gitignore`` names: what runs leave behind."""
    lines = REPO.joinpath(".gitignore").read_text().split()
    return tuple(line for line in lines if line.endswith("/"))


def test_backticked_paths_exist():
    """A span that reads as a path (``a/b``, no spaces, wildcards or
    ``<placeholders>``) whose first part is a directory of the repo or
    of ``src/repro`` must name an existing file or directory; a pytest
    node id's ``::test`` suffix is dropped, and a run's output
    directory (in ``.gitignore``) need not exist."""
    missing, ignored = set(), _ignored()
    for doc, span in _spans():
        path = span.split("::")[0]
        if ("/" not in path or re.search(r"[^\w./\-]", path)
                or path.startswith(ignored)):
            continue
        root = _path_root(path.split("/")[0])
        if root is not None and not (root / path).exists():
            missing.add((doc, span))
    assert missing == set()


def _roadmap_items():
    """``{number: text}`` of ROADMAP.md's numbered open items."""
    text = REPO.joinpath("ROADMAP.md").read_text()
    parts = re.split(r"^(\d+)\. ", text, flags=re.M)
    return {int(n): body for n, body in zip(parts[1::2], parts[2::2])}


def test_cited_roadmap_items_exist():
    items = _roadmap_items()
    files = [REPO / "README.md"]
    for root in ("src", "tests", ".github"):
        files += [p for p in (REPO / root).rglob("*")
                  if p.is_file() and p.suffix in (".py", ".yml", ".md")]
    dangling = set()
    for path in files:
        for number, sub in CITE.findall(path.read_text()):
            body = items.get(int(number))
            if body is None or (sub and f"({sub})" not in body):
                dangling.add((path.relative_to(REPO).as_posix(),
                              number + (f"({sub})" if sub else "")))
    assert dangling == set()
    assert items, "no ROADMAP item found: the scan is broken"
