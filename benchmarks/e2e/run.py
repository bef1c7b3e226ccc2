#!/usr/bin/env python3
"""End-to-end benchmark: time to a converged solve and service latency,
with a per-layer traced run.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed 0]
        [--seconds 20] [--trace 0|1] [--out DIR] [--smoke]
        [--make-reference]

Runs each workload in a fresh subprocess (``child.py``), checks every
result against an oracle, prints every metric by name with its unit,
writes ``<out>/report.json`` and one span file per traced workload, and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` gives the end-to-end metrics (no shim
installed), ``--trace 1`` the per-layer metrics; without ``--trace``
both runs are made.  The metric and workload names are the ones
declared in ``BENCHMARK.json``; a name computed but not declared, or a
failed operation, makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    """One thread everywhere (the host has two cores and the load
    generator is one process), the repo on the path, and the compiled
    kernels cached inside the checkout, keyed by their source hash."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["REPRO_KERNELS_CACHE"] = str(ROOT / ".bench_build" / "repro_kernels")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def build_kernels(env: dict) -> float:
    """Compile (first run in a checkout) or find the C kernels before
    any workload starts, so a build never lands inside ``setup_s``: a
    changed C source shows here and as ``kernels.backend_load_s``."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "from repro import kernels; kernels.backend_for('compiled')"],
        env=env, check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def run_child(env: dict, out: pathlib.Path, workload: str, *, seed: int,
              seconds: float, trace: int, smoke: bool,
              make_reference: bool = False) -> dict:
    """One workload, one mode, one process; its whole process group is
    killed if it overruns, so no worker can outlive it."""
    result = out / f"result-{workload}-trace{trace}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--result", str(result),
           "--spans", str(out / f"trace-{workload}.json")]
    cmd += ["--smoke"] * smoke + ["--make-reference"] * make_reference
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S * (3 if make_reference
                                                    else 1))
        crash = None if code == 0 else f"exit code {code}"
    except subprocess.TimeoutExpired:
        crash = f"no result after {CHILD_TIMEOUT_S} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if crash is None and result.exists():
        with open(result) as fh:
            return json.load(fh)
    # a crashed workload is one failed operation out of one
    return {"workload": workload, "attempted": 1, "failed": 1,
            "correct": False, "metrics": {}, "exit_code": proc.returncode,
            "failures": [f"{workload} subprocess: {crash}"]}


def labelled(doc: dict, specs: list[dict], problems: list[str]) -> dict:
    """The declared metrics of one mode with their units; a layer that
    does no work on a workload reads 0 there."""
    got = doc["metrics"]
    known = {s["name"] for s in specs}
    for name in sorted(set(got) - known):
        problems.append(f"{doc['workload']}: metric {name!r} is computed "
                        f"but not declared in BENCHMARK.json")
    return {s["name"]: {"value": got.get(s["name"], 0), "unit": s["unit"]}
            for s in specs}


def print_metrics(title: str, metrics: dict) -> None:
    print(f"\n{title}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")


def make_references(env, out, names, seed, smoke) -> int:
    import oracle
    from workloads import WORKLOADS, SolveWorkload
    refs = {}
    for name in names:
        if isinstance(WORKLOADS[name], SolveWorkload):
            print(f"oracle-tier solve of {name} ...", flush=True)
            refs[name] = run_child(env, out, name, seed=seed, seconds=0,
                                   trace=0, smoke=smoke,
                                   make_reference=True)
            if refs[name].get("failed"):
                print(refs[name]["failures"], file=sys.stderr)
                return 1
    path = oracle.reference_path(seed, smoke)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"seed": seed, "smoke": smoke,
                   "tier": "engine=numpy, policy=fp64, executor=local",
                   "workloads": refs}, fh, indent=1)
    print(f"wrote {path}")
    return 0


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"run.py: {SRC / 'repro'} is missing: the benchmark needs "
              f"the repository it measures", file=sys.stderr)
        return 2
    bench = declared()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out", default=str(HERE / "out"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    workloads = args.workload or names
    modes = [args.trace] if args.trace is not None else [0, 1]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = child_env()
    os.environ.update(env)

    build_s = build_kernels(env)
    if args.make_reference:
        return make_references(env, out, workloads, args.seed, args.smoke)
    sys.path.insert(0, str(SRC))
    import hostfacts
    report = {"host": hostfacts.host_facts(), "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke,
              "kernels_build_s": build_s,
              "loadavg_1min_start": hostfacts.loadavg_1min(),
              "workloads": {}}
    sections = {0: "end_to_end", 1: "per_layer"}
    problems: list[str] = []
    attempted = failed = 0
    final: dict = {}
    for name in workloads:
        row = report["workloads"][name] = {}
        for trace in modes:
            doc = run_child(env, out, name, seed=args.seed,
                            seconds=args.seconds, trace=trace,
                            smoke=args.smoke)
            attempted += doc["attempted"]
            failed += doc["failed"]
            problems += doc.get("failures", [])
            if doc.get("exit_code") == 3:      # the child's tier guard
                report["tier_guard"] = name
            metrics = labelled(doc, bench[sections[trace]], problems)
            row[sections[trace]] = metrics
            row[f"detail_trace{trace}"] = {
                k: v for k, v in doc.items() if k != "metrics"}
            report["backend"] = doc.get("backend", report.get("backend"))
            print_metrics(f"{name}  [{sections[trace]}, seed {args.seed}]",
                          metrics)
            prefix = f"{name}/" if len(workloads) > 1 else ""
            final.update({prefix + k: v for k, v in metrics.items()})
    report["loadavg_1min_end"] = hostfacts.loadavg_1min()
    report["problems"] = problems
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nhost: {report['host']['cpu_model']} x{report['host']['nproc']}"
          f", backend {report['backend']}, load "
          f"{report['loadavg_1min_start']:.2f} -> "
          f"{report['loadavg_1min_end']:.2f}; report in {out}")
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    if "tier_guard" in report:
        return 3
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
