"""Capability probe for the compiled kernel tier.

``engine="compiled"`` is a *request*, not a requirement: this module
decides at dispatch time whether the cffi-compiled C library (the one
compiled backend) or plain numpy will actually serve it.  The library
is loaded once per process and the outcome memoised: the loaded
backend, or the record of why it could not be had.  Environments
without cffi or a C toolchain resolve ``"compiled"`` to ``"numpy"``
and run the oracle tier unchanged; nothing in the repo ever
hard-imports an optional dependency.

The degradation is not *silent*: the failure record (stage, exception
type, message, traceback tail) is in :func:`capability_report`, the
first ``compiled`` -> ``numpy`` fallback caused by a failure — as
opposed to a machine that simply lacks cffi or a compiler — emits a
``RuntimeWarning``, and ``python -m repro.kernels`` prints the report,
including the x86-64 level the library was built for on this CPU.

Set ``REPRO_KERNELS_DISABLE=1`` to force the numpy resolution even
when the backend is available (the CI fallback leg, A/B debugging); it
is read on every call.
"""

from __future__ import annotations

import os
import shutil
import traceback
import warnings

__all__ = ["disabled", "resolve_engine", "capability_report",
           "invalidate", "main"]

#: lines of formatted traceback kept in the failure record
_TB_TAIL_LINES = 6
#: exception types that mean "not installed": degrade quietly
_BENIGN = ("ModuleNotFoundError", "FileNotFoundError")

#: this process's C backend: None until first asked for, then the
#: loaded ``CBackend`` or the failure record (a dict)
_memo = None
#: has the one-shot fallback warning fired yet
_warned = False


def disabled() -> bool:
    """Environment kill-switch: force the numpy resolution."""
    return os.environ.get("REPRO_KERNELS_DISABLE", "") not in ("", "0")


def _failure(stage: str, exc: BaseException) -> dict:
    """The record of what took the backend out of service, and where
    (``"probe"`` or ``"build"``)."""
    tb = traceback.format_exception(type(exc), exc, exc.__traceback__)
    return {"stage": stage, "exc_type": type(exc).__name__,
            "message": str(exc),
            "traceback_tail": "".join(tb).rstrip().splitlines()[-_TB_TAIL_LINES:]}


def _load():
    """The C backend, or the failure record: cffi and a C compiler
    must be present, then the library builds (or is found cached)."""
    try:
        import cffi  # noqa: F401
    except Exception as exc:
        # ModuleNotFoundError is "not installed"; anything else is a
        # broken install worth reporting — the record keeps the type.
        return _failure("probe", exc)
    if not any(shutil.which(cc) for cc in ("gcc", "cc", "clang")):
        return _failure("probe", FileNotFoundError(
            "no C compiler on PATH (tried gcc, cc, clang)"))
    from repro.kernels.cbackend import load_cbackend
    try:
        return load_cbackend()
    except Exception as exc:
        return _failure("build", exc)


def _backend():
    """The loaded C backend, or None when it cannot be had."""
    global _memo
    if _memo is None:
        # Per-process memo: a forked worker inherits the parent's.
        _memo = _load()
    return None if isinstance(_memo, dict) else _memo


def resolve_engine(engine: str = "compiled") -> str:
    """Map the engine knob to a concrete backend name.

    ``"numpy"`` resolves to itself; ``"compiled"`` resolves to ``"c"``
    when the C backend loads and degrades to ``"numpy"`` otherwise.
    The first degradation caused by a *failure* (as opposed to a
    missing cffi or compiler) warns once with the recorded reason.
    """
    global _warned
    if engine == "numpy":
        return "numpy"
    if engine != "compiled":
        raise ValueError(f"unknown engine {engine!r} "
                         "(expected one of ('numpy', 'compiled'))")
    if disabled():
        return "numpy"
    if _backend() is not None:
        return "c"
    if not _warned and _memo["exc_type"] not in _BENIGN:
        _warned = True      # once per process, by design
        warnings.warn(
            "engine='compiled' fell back to the numpy tier because the C "
            f"backend failed — {_memo['exc_type']} at {_memo['stage']} "
            f"({_memo['message']}). Run `python -m repro.kernels` for the "
            "full report.", RuntimeWarning, stacklevel=2)
    return "numpy"


def capability_report() -> dict:
    """The resolution, the library's ISA level and the failure record
    of the C backend, if it has one."""
    resolved = resolve_engine("compiled")
    return {
        "disabled": disabled(),
        "resolved": resolved,
        "isa": _backend().isa if resolved == "c" else None,
        "quarantine": {"c": dict(_memo)} if isinstance(_memo, dict) else {},
    }


def invalidate() -> None:
    """Forget the memo (tests that fake the environment)."""
    global _memo, _warned
    _memo, _warned = None, False


def main() -> int:
    """``python -m repro.kernels``: print the report."""
    import json

    print(json.dumps(capability_report(), indent=2))
    return 0
