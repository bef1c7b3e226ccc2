"""Core data model for reprolint: findings, pragmas, parsed modules.

A *finding* is one rule violation at a source location.

A *pragma* is an in-source annotation comment::

    # lint: compiled (cffi-C twins of the numpy kernels)
    def selftest():   # lint: compiled-ok (diagnostic helper, not a kernel)

The module marker ``compiled`` classifies the whole file; the
``compiled-ok`` token suppresses R006 on one statement, either at the
end of the statement's first line or on a comment-only line immediately
above it.  Every pragma should carry a parenthesised justification —
the annotation documents *why* the exception is safe.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding", "ModuleInfo", "SUPPRESS_TOKENS", "MODULE_TOKENS",
    "parse_module",
]

#: Suppression token -> the rule it silences.
SUPPRESS_TOKENS = {"compiled-ok": "R006"}

#: Module-classification tokens.  ``compiled`` marks an optional
#: compiled-backend module (cffi-C twins of numpy kernels): R006
#: requires it to declare its numpy oracle map (``__oracles__``) and
#: fallback contract (``__fallback__``).
MODULE_TOKENS = frozenset({"compiled"})

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

    def to_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ModuleInfo:
    """A parsed source module plus its lint annotations."""

    path: Path
    rel: str                               # normalised display path
    source: str = ""
    tree: ast.Module | None = None
    syntax_error: str | None = None
    kind: str | None = None                # "compiled" | None
    # line -> set of rule ids suppressed there
    _suppress: dict[int, set[str]] = field(default_factory=dict)
    _own_line_pragmas: set[int] = field(default_factory=set)
    bad_pragmas: list[tuple[int, str]] = field(default_factory=list)

    @property
    def is_compiled(self) -> bool:
        return self.kind == "compiled"

    def suppressed(self, rule: str, line: int) -> bool:
        """True if ``rule`` is pragma-silenced for the statement whose
        first physical line is ``line`` (same line, or a comment-only
        pragma line directly above)."""
        if rule in self._suppress.get(line, ()):
            return True
        prev = line - 1
        return (prev in self._own_line_pragmas
                and rule in self._suppress.get(prev, ()))

    def finding(self, rule: str, line: int, col: int,
                message: str) -> Finding:
        return Finding(rule=rule, path=self.rel, line=line, col=col,
                       message=message)


def _iter_comments(source: str):
    """Yield ``(line, text, own_line)`` for every comment token."""
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                own = tok.line[: tok.start[1]].strip() == ""
                yield tok.start[0], tok.string, own
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return


def _pragma_tokens(body: str) -> list[str]:
    """``compiled-ok, other (why it is fine)`` -> the tokens."""
    body = re.sub(r"\(.*\)\s*$", "", body.strip()).strip()
    return [t.strip() for t in body.split(",") if t.strip()]


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
    try:
        mod.tree = ast.parse(mod.source, filename=str(path))
    except SyntaxError as exc:
        mod.syntax_error = f"syntax error: {exc.msg} (line {exc.lineno})"

    for line, text, own in _iter_comments(mod.source):
        m = _PRAGMA_RE.search(text)
        if not m:
            continue
        tokens = _pragma_tokens(m.group("body"))
        if not tokens:
            mod.bad_pragmas.append((line, "empty 'lint:' pragma"))
            continue
        if own:
            mod._own_line_pragmas.add(line)
        for tok in tokens:
            if tok in MODULE_TOKENS:
                if not own:
                    mod.bad_pragmas.append(
                        (line, f"module marker {tok!r} must be on its own "
                               f"comment line"))
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
