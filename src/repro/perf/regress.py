"""Report plumbing: attribute a JSON report to a commit, write it whole.

:func:`git_sha` is recorded in the host facts of every
``benchmarks/e2e`` report so a row can be traced to the code that
produced it; :func:`atomic_write_json` is how telemetry traces
(:mod:`repro.telemetry.trace`) reach disk.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import tempfile

__all__ = ["atomic_write_json", "git_sha"]


def git_sha() -> str | None:
    """The repository HEAD commit (short form) of the code being
    benched, so every benchmark report is attributable to a commit.
    Returns ``None`` when the tree is not a git checkout (an installed
    package, a tarball CI job); report writers record the ``None``
    rather than omitting the key, so "unattributable" is visible in
    the report.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None


def atomic_write_json(path, doc: dict) -> pathlib.Path:
    """Serialise ``doc`` and atomically replace ``path`` with it.

    The JSON is written to a temporary file in the *same directory*
    (``os.replace`` is only atomic within one filesystem) and swapped
    in afterwards, so a crash mid-write — or mid-serialisation — can
    never leave a truncated report behind: readers see either the old
    document or the new one, never half of each.
    """
    path = pathlib.Path(path)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
