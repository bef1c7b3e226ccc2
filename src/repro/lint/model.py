"""Core data model for reprolint: findings, pragmas, parsed modules.

A *finding* is one rule violation at a source location, carrying a
content-based fingerprint so a checked-in baseline keeps suppressing
the same finding as unrelated lines are inserted above it (the
fingerprint hashes the rule, file, and normalised source line — not
the line *number*).

A *pragma* is an in-source annotation comment::

    # lint: kernel (hot-path module: dtype/loop/scatter rules apply)
    # lint: setup (construction-only module: scatter-adds allowed)
    np.add.at(indptr, rows + 1, 1)   # lint: scatter-ok (CSR build)

Module markers (``kernel`` / ``setup`` / ``worker`` / ``compiled`` /
``clock``) classify the whole file; the
``*-ok`` tokens suppress one rule on one statement, either at the end
of the statement's first line or on a comment-only line immediately
above it.  Every pragma should carry a parenthesised justification —
the annotation documents *why* the exception is safe.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding", "ModuleInfo", "Pragma", "SUPPRESS_TOKENS", "MODULE_TOKENS",
    "parse_module",
]

#: Suppression token -> the rule it silences.
SUPPRESS_TOKENS = {
    "oracle-ok": "R001",
    "dtype-ok": "R002",
    "loop-ok": "R003",
    "scatter-ok": "R004",
    "telemetry-ok": "R005",
    "compiled-ok": "R006",
    "header-ok": "R007",
    "purity-ok": "R008",
}

#: Module-classification tokens.  ``worker`` is a kernel module that
#: executes inside forked worker processes: every kernel rule applies,
#: but it may read the wall clock directly (R005's clock check), since
#: worker-side telemetry cannot call back into the parent's recorder.
#: ``compiled`` marks an optional compiled-backend module (cffi-C
#: twins of numpy kernels): the kernel dtype/loop rules do not apply —
#: its loops are the compiled implementation, not Python hot paths —
#: but R006 requires the module to declare its numpy oracle map
#: (``__oracles__``) and fallback contract (``__fallback__``).
#: ``clock`` marks the repo's single timing authority (the telemetry
#: timer module): R005/R008 allow direct wall-clock reads there —
#: every other module must route timing through it.
MODULE_TOKENS = frozenset({"kernel", "setup", "worker", "compiled",
                           "clock"})

_PRAGMA_RE = re.compile(r"#\s*lint:\s*(?P<body>[^#]*)")
_TOKEN_RE = re.compile(r"^[a-z][a-z0-9-]*$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    fingerprint: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Finding":
        return cls(rule=d["rule"], path=d["path"], line=int(d["line"]),
                   col=int(d["col"]), message=d["message"],
                   fingerprint=d["fingerprint"])

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# lint:`` comment."""

    line: int
    tokens: tuple[str, ...]
    justification: str
    own_line: bool          # True when the comment is the whole line


@dataclass
class ModuleInfo:
    """A parsed source module plus its lint annotations."""

    path: Path
    rel: str                               # normalised display path
    source: str = ""
    lines: list[str] = field(default_factory=list)
    tree: ast.Module | None = None
    syntax_error: str | None = None
    kind: str | None = None        # "kernel"|"setup"|"worker"|"compiled"|None
    pragmas: list[Pragma] = field(default_factory=list)
    # line -> set of rule ids suppressed there
    _suppress: dict[int, set[str]] = field(default_factory=dict)
    _own_line_pragmas: set[int] = field(default_factory=set)
    bad_pragmas: list[tuple[int, str]] = field(default_factory=list)

    @property
    def is_kernel(self) -> bool:
        return self.kind in ("kernel", "worker")

    @property
    def is_worker(self) -> bool:
        return self.kind == "worker"

    @property
    def is_compiled(self) -> bool:
        return self.kind == "compiled"

    @property
    def is_setup(self) -> bool:
        return self.kind == "setup"

    @property
    def is_clock(self) -> bool:
        return self.kind == "clock"

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def suppressed(self, rule: str, line: int) -> bool:
        """True if ``rule`` is pragma-silenced for the statement whose
        first physical line is ``line`` (same line, or a comment-only
        pragma line directly above)."""
        if rule in self._suppress.get(line, ()):
            return True
        prev = line - 1
        return (prev in self._own_line_pragmas
                and rule in self._suppress.get(prev, ()))

    def finding(self, rule: str, line: int, col: int, message: str,
                _counts: dict | None = None) -> Finding:
        norm = self.line_text(line).strip()
        # Occurrence index among identical (rule, normalised-line) pairs
        # keeps fingerprints distinct for repeated idioms in one file
        # while staying stable when unrelated lines move.
        occ = 0
        if _counts is not None:
            key = (rule, norm)
            occ = _counts.get(key, 0)
            _counts[key] = occ + 1
        digest = hashlib.sha1(
            f"{rule}|{self.rel}|{norm}|{occ}".encode()).hexdigest()[:16]
        return Finding(rule=rule, path=self.rel, line=line, col=col,
                       message=message, fingerprint=digest)


def _iter_comments(source: str):
    """Yield ``(line, col, text, own_line)`` for every comment token."""
    try:
        toks = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in toks:
            if tok.type == tokenize.COMMENT:
                own = tok.line[: tok.start[1]].strip() == ""
                yield tok.start[0], tok.start[1], tok.string, own
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return


def _parse_pragma_body(body: str) -> tuple[list[str], str]:
    """Split ``loop-ok, dtype-ok (why it is fine)`` into tokens + why."""
    body = body.strip()
    justification = ""
    m = re.search(r"\((?P<why>.*)\)\s*$", body)
    if m:
        justification = m.group("why").strip()
        body = body[: m.start()].strip()
    tokens = [t.strip() for t in body.split(",") if t.strip()]
    return tokens, justification


def parse_module(path: Path, rel: str | None = None,
                 source: str | None = None) -> ModuleInfo:
    """Read, tokenize, and AST-parse one module.

    Pass ``source`` to parse text that is not on disk.
    """
    rel = rel if rel is not None else str(path)
    mod = ModuleInfo(path=path, rel=rel.replace("\\", "/"))
    if source is not None:
        mod.source = source
    else:
        try:
            mod.source = path.read_text(encoding="utf-8")
        except OSError as exc:
            mod.syntax_error = f"unreadable: {exc}"
            return mod
    mod.lines = mod.source.splitlines()
    try:
        mod.tree = ast.parse(mod.source, filename=str(path))
    except SyntaxError as exc:
        mod.syntax_error = f"syntax error: {exc.msg} (line {exc.lineno})"

    for line, _col, text, own in _iter_comments(mod.source):
        m = _PRAGMA_RE.search(text)
        if not m:
            continue
        tokens, why = _parse_pragma_body(m.group("body"))
        if not tokens:
            mod.bad_pragmas.append((line, "empty 'lint:' pragma"))
            continue
        mod.pragmas.append(Pragma(line=line, tokens=tuple(tokens),
                                  justification=why, own_line=own))
        if own:
            mod._own_line_pragmas.add(line)
        for tok in tokens:
            if tok in MODULE_TOKENS:
                if not own:
                    mod.bad_pragmas.append(
                        (line, f"module marker {tok!r} must be on its own "
                               f"comment line"))
                elif mod.kind is not None and mod.kind != tok:
                    mod.bad_pragmas.append(
                        (line, f"conflicting module markers: "
                               f"{mod.kind!r} vs {tok!r}"))
                else:
                    mod.kind = tok
            elif tok in SUPPRESS_TOKENS:
                mod._suppress.setdefault(line, set()).add(
                    SUPPRESS_TOKENS[tok])
            elif not _TOKEN_RE.match(tok):
                mod.bad_pragmas.append((line, f"malformed pragma token "
                                              f"{tok!r}"))
            else:
                known = sorted(SUPPRESS_TOKENS) + sorted(MODULE_TOKENS)
                mod.bad_pragmas.append(
                    (line, f"unknown pragma token {tok!r} "
                           f"(known: {', '.join(known)})"))
    return mod
