"""Capability probe for the compiled kernel tier.

``engine="compiled"`` is a *request*, not a requirement: this module
decides at dispatch time whether the cffi-compiled C library or plain
numpy will actually serve it.  The probe is import-guarded and cached,
so environments without cffi or a C toolchain resolve ``"compiled"``
to ``"numpy"`` and run the oracle tier unchanged; nothing in the repo
ever hard-imports an optional dependency.

The degradation is no longer *silent*: every probe failure and every
backend-initialisation failure is quarantined with its exception
(type, message, traceback tail) in :func:`capability_report`, the
first ``compiled`` -> ``numpy`` fallback caused by a quarantined
backend emits a ``RuntimeWarning``, and ``python -m repro.kernels``
prints the full report.

Set ``REPRO_KERNELS_DISABLE=1`` to force the numpy resolution even
when a backend is available (the CI fallback leg, A/B debugging).
"""

from __future__ import annotations

# lint: setup (one-shot probes; no numeric kernels here)

import os
import shutil
import traceback
import warnings

__all__ = ["probe_c", "available_backends", "resolve_engine",
           "mark_unavailable", "record_quarantine", "broken_backends",
           "capability_report", "invalidate"]

ENGINES = ("numpy", "compiled")

#: probe name -> cached bool result
_PROBE_CACHE: dict[str, bool] = {}
#: backends whose lazy initialisation failed (e.g. the C build broke)
_BROKEN: set[str] = set()
#: backend -> details of why it is out of service (probe or init stage)
_QUARANTINE: dict[str, dict] = {}
#: has the one-shot fallback warning fired yet
_WARNED = False

#: lines of formatted traceback kept in a quarantine record
_TB_TAIL_LINES = 6


def record_quarantine(backend: str, stage: str, exc: BaseException) -> None:
    """Attach the exception that took ``backend`` out of service.

    ``stage`` names where it happened (``"probe"``, ``"build"``,
    ``"init"``); the record keeps the exception type, message, and the
    tail of the formatted traceback so ``capability_report`` / the CLI
    can say *why* the solver is running the numpy tier.
    """
    tb = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = "".join(tb).rstrip().splitlines()[-_TB_TAIL_LINES:]
    # lint: purity-ok (per-process diagnostic record: each process probes its own toolchain)
    _QUARANTINE[backend] = {
        "stage": stage,
        "exc_type": type(exc).__name__,
        "message": str(exc),
        "traceback_tail": tail,
    }


def probe_c() -> bool:
    """True when cffi plus a C compiler are present."""
    try:
        import cffi  # noqa: F401
    except Exception as exc:
        # A plain ModuleNotFoundError is the expected "not installed"
        # outcome; anything else is a broken install worth reporting.
        # Both are recorded — the report distinguishes them by type.
        record_quarantine("c", "probe", exc)
        return False
    if not any(shutil.which(cc) for cc in ("gcc", "cc", "clang")):
        record_quarantine("c", "probe",
                          FileNotFoundError("no C compiler on PATH "
                                            "(tried gcc, cc, clang)"))
        return False
    return True


def disabled() -> bool:
    """Environment kill-switch: force the numpy resolution."""
    return os.environ.get("REPRO_KERNELS_DISABLE", "") not in ("", "0")


def _cached(name: str, probe) -> bool:
    hit = _PROBE_CACHE.get(name)
    if hit is None:
        # lint: purity-ok (per-process probe memo: a worker re-probes its own interpreter by design)
        hit = _PROBE_CACHE[name] = bool(probe())
    return hit


def available_backends() -> tuple[str, ...]:
    """Usable compiled backends: ``("c",)`` or ``()``."""
    if disabled():
        return ()
    if "c" not in _BROKEN and _cached("c", probe_c):
        return ("c",)
    return ()


def resolve_engine(engine: str = "compiled") -> str:
    """Map the engine knob to a concrete backend name.

    ``"numpy"`` resolves to itself; ``"compiled"`` resolves to ``"c"``
    when that backend is usable and degrades to ``"numpy"`` otherwise.
    The first degradation caused by a *quarantined* backend (one that
    failed, as opposed to one that was never installed) warns once with
    the recorded reason.
    """
    if engine == "numpy":
        return "numpy"
    if engine != "compiled":
        raise ValueError(f"unknown engine {engine!r} "
                         f"(expected one of {ENGINES})")
    backends = available_backends()
    if backends:
        return backends[0]
    _warn_fallback()
    return "numpy"


def broken_backends() -> dict[str, dict]:
    """Quarantined backends that *failed*, keyed by name.

    A plain not-installed outcome (``ModuleNotFoundError`` from a
    probe, ``FileNotFoundError`` for a missing compiler) is benign and
    excluded; anything else — failed C build, import error inside an
    installed cffi, an init marked broken — is a real failure that
    callers refusing to degrade silently (a benchmark of the compiled
    tier) should treat as fatal.
    """
    benign = ("ModuleNotFoundError", "FileNotFoundError")  # not installed
    return {name: dict(rec) for name, rec in sorted(_QUARANTINE.items())
            if name in _BROKEN or rec["exc_type"] not in benign}


def _warn_fallback() -> None:
    """Warn once when compiled -> numpy fallback hides a real failure.

    A machine that simply lacks cffi or a compiler degrades quietly
    (that is the documented contract); a backend that *broke* — failed
    C build, import error inside an installed cffi — is surfaced.
    """
    # lint: purity-ok (warn-once latch; warning once per process is the desired behaviour)
    global _WARNED
    if _WARNED or disabled():
        return
    broken = broken_backends()
    if not broken:
        return
    _WARNED = True
    reasons = "; ".join(
        f"{name}: {rec['exc_type']} at {rec['stage']} ({rec['message']})"
        for name, rec in sorted(broken.items()))
    warnings.warn(
        "engine='compiled' fell back to the numpy tier because a "
        f"backend failed — {reasons}. Run `python -m repro.kernels` "
        "for the full report.",
        RuntimeWarning, stacklevel=3)


def mark_unavailable(backend: str) -> None:
    """Record a backend whose initialisation failed so later resolves
    skip it (a broken C toolchain should degrade, not raise again).
    The quarantine record of the failure itself, if any, is kept."""
    # lint: purity-ok (per-process breakage record: the process that saw the failure stops retrying)
    _BROKEN.add(backend)
    if backend not in _QUARANTINE:
        # lint: purity-ok (same per-process quarantine record as above)
        _QUARANTINE[backend] = {
            "stage": "init", "exc_type": None,
            "message": "marked unavailable (no exception recorded)",
            "traceback_tail": [],
        }


def capability_report() -> dict:
    """Full capability state: probes, resolution, quarantine reasons."""
    return {
        "disabled": disabled(),
        "available": list(available_backends()),
        "resolved": resolve_engine("compiled"),
        "broken": sorted(_BROKEN),
        "quarantine": {name: dict(rec)
                       for name, rec in sorted(_QUARANTINE.items())},
    }


def invalidate() -> None:
    """Drop cached probe results (tests that fake the environment)."""
    global _WARNED
    _PROBE_CACHE.clear()
    _BROKEN.clear()
    _QUARANTINE.clear()
    _WARNED = False


def main() -> int:
    """``python -m repro.kernels``: print the report."""
    import json

    report = capability_report()
    print(json.dumps(report, indent=2))
    return 0
