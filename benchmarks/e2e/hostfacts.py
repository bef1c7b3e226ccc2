"""Host facts recorded with every report, so rows from different
machines stay comparable (the reporting discipline of Frisch &
Mundani, arXiv:1807.00146)."""

from __future__ import annotations

import glob
import os
import pathlib
import platform
import sys

__all__ = ["host_facts", "cache_bytes", "meminfo_bytes", "loadavg_1min"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_bytes() -> dict[str, int]:
    """Cache name (``L1d``, ``L2u``, ...) -> bytes, as sysfs has cpu0's."""
    out = {}
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (
                pathlib.Path(index, name).read_text().strip()
                for name in ("level", "type", "size"))
            out[f"L{level}{kind[0].lower()}"] = (
                int(size[:-1]) * units[size[-1]] if size[-1] in units
                else int(size))
        except (OSError, ValueError, IndexError):
            continue
    return out


def meminfo_bytes(key: str) -> int:
    """One ``/proc/meminfo`` row (``MemTotal``, ``MemAvailable``)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _blas() -> str:
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def loadavg_1min() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def host_facts() -> dict:
    import numpy
    import scipy
    from repro.perf.regress import git_sha
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cache_bytes": cache_bytes(),
        "ram_mib": meminfo_bytes("MemTotal") >> 20,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
    }
