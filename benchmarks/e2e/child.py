"""One workload in one mode, in its own fresh process.

``run.py`` starts this file once per workload and mode, so the cold
solve really is the first solve of a process, ``peak_rss_mb`` belongs
to one workload, and a crash takes down one row only.  The result is
written as JSON to ``--result``.

Timed mode (``--trace 0``): set-up -> N solves, each a fresh
``NKSSolver`` timed constructor + ``solve()``, the first of them the
process's first -> end-to-end metrics.  No shim is installed.

Traced mode (``--trace 1``): set-up -> one cold and one warm solve
untraced -> one solve with the shims on -> per-layer metrics from the
span list, the direct layer measurements, and the span file.

Steadiness.  The host is a shared 2-CPU VM on which the same solve
takes anything from 1.0x to 1.3x its quiet time, in bursts of seconds.
The N solves of a run do identical work step for step (the first adds
a few memo fills, a few percent at most), so each is
split at its pseudo-timestep boundaries (the solver's own ``monitor``
hook) and ``solve_s`` is the sum over steps of the fastest instance of
each step: the time of one solve with the bursts filtered out.  The
stream does the same per position in its 9-request cycle.  The raw
per-solve and per-request times stay in the result file.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()        # set-up starts here, before the imports

import argparse                   # noqa: E402
import contextlib                 # noqa: E402
import glob                       # noqa: E402
import json                       # noqa: E402
import os                         # noqa: E402
import resource                   # noqa: E402
import statistics                 # noqa: E402
import sys                        # noqa: E402

SHM_GLOB = "/dev/shm/psm_*"
TICKET_TIMEOUT_S = 150


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_processes() -> list[str]:
    """Command lines of live children of this process (the
    multiprocessing resource tracker, which by design lives as long as
    its parent, is not a leak)."""
    me = str(os.getpid())
    out = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if fields[1] != me or fields[0] == "Z":
                continue
            with open(stat[:-4] + "cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, IndexError):
            continue
        if "resource_tracker" not in cmd:
            out.append(cmd.strip())
    return out


class Run:
    """What every workload shares: the set-up clock, the list of
    operations with their verdicts, and the result document."""

    def __init__(self, args, spec) -> None:
        self.args = args
        self.spec = spec
        self.ops: list[dict] = []
        self.shm_before = set(glob.glob(SHM_GLOB))
        self.setup: dict[str, float] = {}
        self.reference = None

    def load(self, *, service: bool) -> None:
        """Imports and compiled-backend load: the part of set-up that
        happens once per process."""
        import numpy  # noqa: F401
        import repro  # noqa: F401
        if service:
            import repro.service  # noqa: F401
        self.setup["import_s"] = time.perf_counter() - _T0
        from repro import kernels
        t0 = time.perf_counter()
        kernels.backend_for("compiled")
        self.setup["backend_load_s"] = time.perf_counter() - t0
        self.backend = kernels.resolve_engine("compiled")
        engine = self.spec.config().engine
        self.resolved = kernels.resolve_engine(engine)
        if engine == "compiled" and self.resolved == "numpy":
            # numpy-tier numbers must never be published under a
            # compiled workload's name
            print(f"tier guard: {self.spec.name} asked for engine="
                  f"'compiled' and it resolved to 'numpy': "
                  f"{kernels.capability.capability_report()['quarantine']}",
                  file=sys.stderr)
            raise SystemExit(3)
        import oracle
        self.reference = oracle.load_reference(
            self.args.seed, self.args.smoke).get(self.spec.name)

    def op(self, kind: str, seconds: float, why: list[str], **extra) -> None:
        self.ops.append({"op": kind, "seconds": seconds, "why": why, **extra})

    def hygiene(self) -> None:
        """No shared-memory segment and no child process may outlive
        the workload; a leak is a failed operation, not a warning."""
        leaked = sorted(set(glob.glob(SHM_GLOB)) - self.shm_before)
        why = [f"leaked shm segment {p}" for p in leaked]
        why += [f"child process still alive: {c}" for c in child_processes()]
        self.op("hygiene", 0.0, why)

    def finish_trace(self, m: dict, rec, shims, reports) -> dict:
        """What both traced runs end with: the host's bandwidth beside
        the bandwidth-bound rows, the leak check, the span file, and the
        solver's own counts for the smoke test to hold the spans to."""
        import layers
        m["kernels.backend_load_s"] = self.setup["backend_load_s"]
        m.update(layers.stream_triad(small=self.args.smoke))
        m.update(layers.stream_fractions(m))
        self.hygiene()
        rec.write(self.args.spans)
        return self.document(m, counts={
            "report_steps": sum(r.num_steps for r in reports),
            "report_linear_its":
                sum(r.total_linear_iterations for r in reports),
            "gmres_restarts": sum(r.restarts for r in shims.reports),
            "gmres_precond_applies":
                sum(r.precond_applies for r in shims.reports)})

    def document(self, metrics: dict, **extra) -> dict:
        failed = [o for o in self.ops if o["why"]]
        return {"workload": self.spec.name, "seed": self.args.seed,
                "trace": self.args.trace, "smoke": self.args.smoke,
                "attempted": len(self.ops), "failed": len(failed),
                "correct": not failed,
                "failures": [f"{o['op']}: {w}" for o in failed
                             for w in o["why"]],
                "metrics": metrics, "setup": self.setup,
                "backend": self.backend, "resolved_engine": self.resolved,
                "reference_checked": self.reference is not None,
                "ops": self.ops, **extra}


def quietest(repeats: list[list[float]]) -> list[float]:
    """Element-wise minimum over repeats of the same sequence of work:
    each piece as fast as its least disturbed instance ran."""
    if len({len(r) for r in repeats}) != 1:
        raise ValueError("repeats of identical work differ in length")
    return [min(piece) for piece in zip(*repeats)]


# ----------------------------------------------------------------------
# the three solve workloads
# ----------------------------------------------------------------------

def run_solves(run: Run) -> dict:
    from repro import NKSSolver

    import oracle
    from workloads import scaled

    args, spec = run.args, run.spec
    run.load(service=False)
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        prob = spec.problem(args.seed, args.smoke)
        builds.append(time.perf_counter() - t0)
    run.setup["build_s"] = statistics.median(builds)
    setup_s = sum(run.setup.values())
    q0 = prob.initial.flat()

    def solve(kind: str, index: int, shims=contextlib.nullcontext()):
        marks = [time.perf_counter()]
        with shims:
            solver = NKSSolver(prob.disc, spec.config())
            report = solver.solve(q0, monitor=lambda record, q:
                                  marks.append(time.perf_counter()))
        marks.append(time.perf_counter())
        seconds = marks[-1] - marks[0]
        why = oracle.check_solve(prob.disc, q0, report, spec.target,
                                 reference=run.reference, rtol=spec.rtol)
        run.op(kind, seconds, why, index=index, steps=report.num_steps,
               linear_its=report.total_linear_iterations,
               final_reduction=report.final_reduction,
               step_s=[b - a for a, b in zip(marks, marks[1:])])
        return seconds, solver, report

    if not args.trace:
        n = 1 if args.smoke else scaled(spec.solves, args.seconds)
        walls = [solve("solve", i)[0] for i in range(n)]
        run.hygiene()
        solve_s = sum(quietest([o["step_s"] for o in run.ops
                                if o["op"] == "solve"]))
        return run.document({
            "setup_s": setup_s,
            "solve_s": solve_s,
            "solves_per_s": 1.0 / solve_s,
            "peak_rss_mb": peak_rss_mb(),
        }, solve_wall_s=walls)

    cold_s, _, _ = solve("cold", 0)
    import layers
    from shims import Shims
    from spans import SpanRecorder

    untraced_s, _, _ = solve("warm", 1)
    rec = SpanRecorder(spec.name)
    rec.set_op(2)
    shims = Shims(rec)
    traced_s, solver, report = solve("traced", 2, shims)
    m = layers.span_metrics(rec, shims.reports, prob.disc.residual_flops())
    m["solvers.final_reduction"] = report.final_reduction
    m["core.cold_solve_s"] = cold_s
    m["bench.trace_overhead_frac"] = traced_s / untraced_s - 1.0
    m["mesh.build_s"] = run.setup["build_s"]
    from repro.partition.metrics import edge_cut
    m["partition.edge_cut"] = edge_cut(prob.disc.mesh.vertex_graph(),
                                       solver.partition_labels)
    if spec.name == "quickstart-defaults":
        # the recorder's own cost, priced on the tier where it is
        # largest relative to the work: the compiled quickstart solve
        cfg = spec.config()
        cfg.engine = "compiled"
        m["telemetry.recorder_overhead_frac"] = layers.recorder_overhead(
            lambda recorder: NKSSolver(prob.disc, cfg, recorder), q0)
    return run.finish_trace(m, rec, shims, [report])


# ----------------------------------------------------------------------
# the service stream
# ----------------------------------------------------------------------

def run_stream(run: Run) -> dict:
    import numpy as np
    from repro.service import ServiceCache, SolveRequest, SolverService

    import oracle
    from workloads import scaled

    args, spec = run.args, run.spec
    run.load(service=True)
    cycles = spec.smoke_cycles if args.smoke \
        else scaled(spec.cycles, args.seconds)
    wings = [w for _ in range(cycles) for burst in spec.bursts
             for w in burst]

    def build_problems():
        return [spec.problem(w, args.seed, i, args.smoke)
                for i, w in enumerate(wings)]

    def start_service():
        return SolverService(
            workers=1, max_queue=spec.max_queue,
            cache=ServiceCache(max_entries=spec.cache_entries))

    def drive(svc, problems):
        """Submit each burst, wait for all of it, then the next."""
        tickets = []
        t0 = time.perf_counter()
        todo = iter(zip(wings, problems))
        for _ in range(len(wings) // 3):
            burst = [svc.submit(SolveRequest(
                prob.disc, prob.initial.flat(), spec.config(), tag=wing))
                for wing, prob in (next(todo) for _ in range(3))]
            for ticket in burst:
                ticket.wait(TICKET_TIMEOUT_S)
            tickets += burst
        return tickets, time.perf_counter() - t0

    def check(tickets, problems, kind):
        first_a = None
        for ticket, prob in zip(tickets, problems):
            report = ticket.report
            if ticket.status != "completed" or report is None:
                why = [f"ticket {ticket.rid} is {ticket.status}: "
                       f"{ticket.error!r}"]
            else:
                why = oracle.check_solve(
                    prob.disc, prob.initial.flat(), report, spec.target,
                    reference=None, rtol=0.0)
                if ticket.request.tag == "A":
                    if first_a is None:
                        first_a = report.final_state
                    elif not np.array_equal(first_a, report.final_state):
                        why.append("repeat of wing A differs bitwise "
                                   "from the first A solve")
            run.op(kind, ticket.total_s, why, rid=ticket.rid,
                   tag=ticket.request.tag, status=ticket.status,
                   batched=ticket.batched, seeded=ticket.seeded,
                   queue_wait_s=ticket.queue_wait_s,
                   solve_s=ticket.solve_s)

    t0 = time.perf_counter()
    problems = build_problems()
    run.setup["build_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    svc = start_service()
    run.setup["service_start_s"] = time.perf_counter() - t0
    setup_s = sum(run.setup.values())
    try:
        tickets, wall = drive(svc, problems)
    finally:
        svc.close()
    check(tickets, problems, "request")
    latency = [t.total_s for t in tickets]
    if not args.trace:
        run.hygiene()
        steady = steady_cycle(tickets)
        return run.document({
            "setup_s": setup_s,
            "solve_s": statistics.median(steady["latency_s"]),
            "solves_per_s": 9 / sum(steady["burst_wall_s"]),
            "peak_rss_mb": peak_rss_mb(),
        }, stream_wall_s=wall, requests=len(tickets), steady_cycle=steady,
            request_p50_s=statistics.median(latency),
            requests_per_s=len(tickets) / wall)

    import layers
    from shims import Shims
    from spans import SpanRecorder

    untraced_p50 = statistics.median(latency)
    problems = build_problems()
    rec = SpanRecorder(spec.name)
    shims = Shims(rec, service=True)
    svc = start_service()
    try:
        with shims:
            tickets, wall = drive(svc, problems)
        snapshot = svc.snapshot()
    finally:
        svc.close()
    check(tickets, problems, "traced-request")
    stages = request_spans(rec, tickets)
    disc = problems[0].disc
    m = layers.span_metrics(rec, shims.reports,
                            disc.residual_flops(second_order=False))
    m.update(service_metrics(tickets, stages, snapshot, wall))
    m["solvers.final_reduction"] = max(
        t.report.final_reduction for t in tickets if t.report is not None)
    m["bench.trace_overhead_frac"] = (
        statistics.median(t.total_s for t in tickets) / untraced_p50 - 1.0)
    m["mesh.build_s"] = run.setup["build_s"] / len(wings)
    from repro.partition.kway import kway_partition
    from repro.partition.metrics import edge_cut
    graph = disc.mesh.vertex_graph()
    cfg = spec.config()
    labels = kway_partition(graph, cfg.precond.nparts, seed=cfg.seed)
    m["partition.edge_cut"] = edge_cut(graph, labels)
    # the proc executor is measured at layer level only: see README
    m.update(layers.spmd_microbench(problems[0], labels))
    doc = run.finish_trace(m, rec, shims, [t.report for t in tickets])
    return dict(doc, cache=snapshot["cache"], service=snapshot["service"])


def steady_cycle(tickets) -> dict:
    """One 9-request cycle with the host's bursts filtered out: every
    cycle repeats the same work position for position (only the very
    first request, the cold one, has no twin in its own cycle), so each
    position's latency and each burst's wall time is taken from the
    cycle where it ran fastest."""
    cycles = [tickets[i:i + 9] for i in range(0, len(tickets), 9)]
    if len(cycles) > 1:
        # the stream's first burst starts on the cold request
        first = [c[:3] for c in cycles[1:]]
    else:
        first = [cycles[0][:3]]
    rest = [c[3:] for c in cycles]

    def burst_wall(burst):
        return (max(t.submitted_at + t.total_s for t in burst)
                - min(t.submitted_at for t in burst))

    return {
        "latency_s": quietest([[t.total_s for t in b] for b in first])
        + quietest([[t.total_s for t in c] for c in rest]),
        "burst_wall_s": [min(burst_wall(b) for b in first)]
        + quietest([[burst_wall(c[:3]), burst_wall(c[3:])] for c in rest]),
    }


def request_spans(rec, tickets) -> dict:
    """Add one ``service.request`` span per ticket (the service stamps
    submit and finish itself) with its queue wait as a child, hang the
    dispatcher's spans of that interval below it, and tag them with
    ``ticket.rid``.  Returns rid -> {stage: seconds}."""
    import bisect

    shimmed = list(rec.spans)
    requests = []
    for t in tickets:
        end = t.submitted_at + t.total_s
        span = rec.add("service.request", t.submitted_at, end, op_id=t.rid)
        rec.add("service.queue_wait", t.submitted_at,
                t.submitted_at + t.queue_wait_s, parent=span.id,
                op_id=t.rid)
        requests.append((t.submitted_at + t.queue_wait_s, end, span))
    # one dispatcher, so running intervals do not overlap
    requests.sort(key=lambda r: r[0])
    starts = [r[0] for r in requests]
    stages: dict = {}
    for s in shimmed:
        i = bisect.bisect_right(starts, s.start) - 1
        if i < 0 or s.end > requests[i][1]:
            continue
        req = requests[i][2]
        s.op_id = req.op_id
        if s.parent is None:
            s.parent = req.id
            if s.name in ("service.seed", "service.harvest"):
                stages.setdefault(req.op_id, {})[s.name] = s.duration
    return stages


def service_metrics(tickets, stages, snapshot, wall: float) -> dict:
    import numpy as np

    def p50(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    total = sum(t.total_s for t in tickets)
    busy = sum(t.solve_s + t.queue_wait_s for t in tickets)
    by_tag = {"A": [], "A'": [], "other": []}
    for t in tickets[1:]:
        by_tag.get(t.request.tag, by_tag["other"]).append(t.total_s)
    cache = snapshot["cache"].values()
    probes = sum(ns["hits"] + ns["misses"] for ns in cache)
    return {
        "service.queue_wait_p50_s": p50(t.queue_wait_s for t in tickets),
        "service.seed_p50_s": p50(stages.get(t.rid, {}).get(
            "service.seed", 0.0) for t in tickets),
        "service.solve_p50_s": p50(t.solve_s for t in tickets),
        "service.harvest_p50_s": p50(stages.get(t.rid, {}).get(
            "service.harvest", 0.0) for t in tickets),
        "service.overhead_frac": (total - busy) / total,
        "service.request_p50_s": p50(t.total_s for t in tickets),
        "service.request_p75_s": float(np.percentile(
            [t.total_s for t in tickets], 75)),
        "service.requests_per_s": len(tickets) / wall,
        "service.cold_first_s": tickets[0].total_s,
        "service.repeat_p50_s": p50(by_tag["A"]),
        "service.jitter_p50_s": p50(by_tag["A'"]),
        "service.other_p50_s": p50(by_tag["other"]),
        "service.cache_hit_ratio":
            sum(ns["hits"] for ns in cache) / probes if probes else 0.0,
        "service.cache_evictions": sum(ns["evictions"] for ns in cache),
        "service.batches": snapshot["service"]["batches"],
        "service.batched_requests": snapshot["service"]["batched_requests"],
    }


# ----------------------------------------------------------------------
# the oracle-tier reference
# ----------------------------------------------------------------------

def make_reference(run: Run) -> dict:
    """One solve on the oracle tier: numpy kernels, fp64, in-process."""
    from repro import NKSSolver

    import oracle

    args, spec = run.args, run.spec
    prob = spec.problem(args.seed, args.smoke)
    q0 = prob.initial.flat()
    report = NKSSolver(prob.disc, spec.config(oracle=True)).solve(q0)
    why = oracle.check_solve(prob.disc, q0, report, spec.target,
                             reference=None, rtol=0.0)
    if why:
        raise SystemExit(f"oracle-tier solve of {spec.name} failed: {why}")
    return {"steps": report.num_steps,
            "linear_its": report.total_linear_iterations,
            "final_reduction": report.final_reduction,
            "functionals": oracle.functionals(prob.disc, report.final_state)}


def main() -> int:
    from workloads import WORKLOADS, SolveWorkload

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]
    run = Run(args, spec)
    if args.make_reference:
        doc = make_reference(run)
    elif isinstance(spec, SolveWorkload):
        doc = run_solves(run)
    else:
        doc = run_stream(run)
    with open(args.result, "w") as fh:
        json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
