"""Telemetry subsystem: recorder semantics, traces, measured Table 3.

The acceptance claims under test: span nesting attributes inclusive
and self time correctly (and survives exceptions), per-rank counters
aggregate, wait accounting implements ``max_r t_r - t_own``, an
instrumented :class:`NKSSolver` run is bitwise-identical to an
uninstrumented one, the measured Table 3 satisfies
``eta_overall = eta_alg * eta_impl`` to 1e-12, and trace JSON writes
are validated and atomic.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core import NKSSolver, SolverConfig
from repro.euler import wing_problem
from repro.perf.regress import atomic_write_json
from repro.telemetry import (KNOWN_PHASES, NULL_RECORDER, NullRecorder,
                             TraceRecorder, load_trace, measured_rows,
                             measured_wall, validate_trace, write_trace)


def _spin(seconds=2e-4):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestSpans:
    def test_inclusive_and_self_time(self):
        rec = TraceRecorder()
        with rec.span("krylov"):
            _spin()
            with rec.span("orthogonalization"):
                _spin()
        inner = rec.phase_seconds("orthogonalization")
        outer = rec.phase_seconds("krylov")
        assert 0 < inner < outer
        # Self time is exclusive of directly nested spans — exactly.
        assert rec.self_seconds("krylov") == outer - inner
        assert rec.self_seconds("orthogonalization") == inner

    def test_nesting_depth_and_calls(self):
        rec = TraceRecorder()
        assert len(rec._stack) == 0
        with rec.span("krylov"):
            assert len(rec._stack) == 1
            for _ in range(3):
                with rec.span("matvec"):
                    assert len(rec._stack) == 2
        assert len(rec._stack) == 0
        assert rec.phase_calls("matvec") == 3
        assert rec.phase_calls("krylov") == 1

    def test_exception_pops_stack_and_commits(self):
        rec = TraceRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("flux"):
                raise RuntimeError("kernel blew up")
        assert not rec._stack                    # stack not corrupted
        assert rec.phase_calls("flux") == 1      # interval still recorded
        with rec.span("flux"):                   # recorder still usable
            pass
        assert rec.phase_calls("flux") == 2

    def test_unknown_phase_rejected_when_strict(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError, match="unknown phase"):
            rec.span("fluxx")
        with pytest.raises(ValueError, match="unknown phase"):
            rec.record_wait("fluxx", [1.0])

    def test_span_elapsed_exposed(self):
        rec = TraceRecorder()
        with rec.span("flux") as sp:
            _spin()
        assert sp.elapsed > 0
        assert sp.elapsed == rec.phase_seconds("flux")


class TestCountersAndWaits:
    def test_per_rank_counter_aggregation(self):
        rec = TraceRecorder()
        for r in range(3):
            rec.count("messages", 2, rank=r)
        rec.count("messages", 1, rank=1)
        rec.count("bytes", 4096, rank=0)
        assert rec.counter("messages") == 7
        assert rec.to_dict()["counters"]["messages"] == {"0": 2, "1": 3,
                                                         "2": 2}
        assert rec.counter("bytes") == 4096
        assert rec.counters() == ["bytes", "messages"]
        assert rec.counter("absent") == 0

    def test_wait_is_max_minus_own(self):
        rec = TraceRecorder()
        rec.record_wait("flux", [1.0, 3.0, 2.0])
        assert rec.wait_seconds("flux", rank=0) == 2.0
        assert rec.wait_seconds("flux", rank=1) == 0.0
        assert rec.wait_seconds("flux", rank=2) == 1.0
        rec.record_wait("flux", [1.0, 3.0, 2.0])   # accumulates
        assert rec.wait_seconds("flux", rank=0) == 4.0
        assert rec.wait_seconds("flux") == 6.0
        rec.record_wait("flux", [])                # no ranks: no-op

    def test_phase_wall_is_max_total_plus_wait(self):
        rec = TraceRecorder()
        # Wait-only accounting (no committed spans): the wall is the
        # max over ranks of accumulated wait.
        rec.record_wait("trisolve", [1.0, 3.0])   # rank 0 waits 2.0
        rec.record_wait("trisolve", [2.0, 1.0])   # rank 1 waits 1.0
        assert rec.phase_wall("trisolve") == pytest.approx(2.0)
        assert rec.phase_wall("matvec") == 0.0    # unrecorded

    def test_ranks_and_phases_queries(self):
        rec = TraceRecorder()
        with rec.span("flux", rank=2):
            pass
        rec.record_wait("ghost_exchange", [0.1, 0.2])
        assert rec.phases() == ["flux", "ghost_exchange"]
        assert rec.ranks("flux") == [2]
        assert rec.ranks() == [0, 1, 2]


class TestExternalSpans:
    """Span time clocked outside the recorder (the service queue wait)."""

    def test_add_span_seconds_accumulates(self):
        rec = TraceRecorder()
        rec.add_span_seconds("flux", 0.5, rank=2)
        rec.add_span_seconds("flux", 0.25, rank=2)
        assert rec.phase_seconds("flux", rank=2) == pytest.approx(0.75)
        assert rec.self_seconds("flux") == pytest.approx(0.75)
        assert rec.phase_calls("flux") == 2
        with pytest.raises(ValueError):
            rec.add_span_seconds("not_a_phase", 1.0)

    def test_booked_inside_an_open_span_is_its_child_time(self):
        """Seconds booked inside an open span (the compiled seq matvec's
        C-timed ranks) are that span's child time, as a nested span's
        would be: the parent's self time is its inclusive time minus
        what was booked, and the self times sum to the inclusive."""
        rec = TraceRecorder()
        with rec.span("krylov") as sp:
            rec.add_span_seconds("matvec", 1e-4, rank=0)
            rec.add_span_seconds("matvec", 2e-4, rank=1)
        assert rec.self_seconds("krylov") == pytest.approx(
            sp.elapsed - 3e-4, abs=1e-12)
        assert rec.self_seconds("krylov") + rec.self_seconds(
            "matvec") == pytest.approx(sp.elapsed, abs=1e-12)



class TestNullRecorder:
    def test_all_operations_noop(self):
        rec = NullRecorder()
        sp = rec.span("anything-goes")
        assert rec.span("other") is sp          # cached, reusable
        with sp:
            with rec.span("nested"):
                pass
        assert sp.elapsed == 0.0
        assert rec.count("x", 5) is None
        assert rec.record_wait("flux", [1.0]) is None

    def test_shared_singleton(self):
        assert isinstance(NULL_RECORDER, NullRecorder)


class TestTraceDocument:
    def _recorded(self):
        rec = TraceRecorder()
        with rec.span("flux", rank=0):
            pass
        with rec.span("flux", rank=1):
            pass
        rec.record_wait("flux", [1e-3, 2e-3])
        rec.count("messages", 3, rank=1)
        return rec

    def test_roundtrip(self, tmp_path):
        rec = self._recorded()
        path = write_trace(tmp_path / "trace.json", rec,
                           meta={"nprocs": 2})
        doc = load_trace(path)
        assert doc["meta"] == {"nprocs": 2}
        assert set(doc["phases"]) == {"flux"}
        entry = doc["phases"]["flux"]["0"]
        assert set(entry) == {"total_s", "self_s", "count", "wait_s"}
        assert entry["wait_s"] == pytest.approx(1e-3)
        assert doc["counters"]["messages"]["1"] == 3

    def test_validate_rejects_unknown_phase(self):
        doc = self._recorded().to_dict()
        doc["phases"]["warp_drive"] = {"0": {"total_s": 1.0, "self_s": 1.0,
                                             "count": 1, "wait_s": 0.0}}
        with pytest.raises(ValueError, match="unknown phase name 'warp_drive'"):
            validate_trace(doc)

    def test_validate_rejects_bad_schema_and_entries(self):
        good = self._recorded().to_dict()
        bad_version = dict(good, schema_version=99)
        with pytest.raises(ValueError, match="unsupported trace schema"):
            validate_trace(bad_version)
        missing = json.loads(json.dumps(good))
        del missing["phases"]["flux"]["0"]["self_s"]
        with pytest.raises(ValueError, match="self_s"):
            validate_trace(missing)
        bad_rank = json.loads(json.dumps(good))
        bad_rank["phases"]["flux"]["zero"] = good["phases"]["flux"]["0"]
        with pytest.raises(ValueError, match="bad rank key"):
            validate_trace(bad_rank)

    def test_write_trace_refuses_invalid(self, tmp_path):
        doc = self._recorded().to_dict()
        doc["phases"]["typo_phase"] = {}
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.json", doc)
        assert not (tmp_path / "t.json").exists()


class TestAtomicWrite:
    def test_crash_mid_write_preserves_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        atomic_write_json(path, {"v": 1})
        # json.dumps raises before any byte reaches `path`.
        with pytest.raises(TypeError):
            atomic_write_json(path, {"v": object()})
        assert json.loads(path.read_text()) == {"v": 1}
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []                   # temp file cleaned up

    def test_tempfile_in_same_directory(self, tmp_path, monkeypatch):
        seen = {}
        import tempfile as _tempfile
        real = _tempfile.mkstemp

        def spy(*args, **kwargs):
            seen["dir"] = kwargs.get("dir")
            return real(*args, **kwargs)

        monkeypatch.setattr("repro.perf.regress.tempfile.mkstemp", spy)
        atomic_write_json(tmp_path / "r.json", {"a": 1})
        assert seen["dir"] == tmp_path


@pytest.fixture(scope="module")
def tiny_problem():
    return wing_problem(7, 5, 4)


class TestInstrumentedSolveIdentity:
    def test_bitwise_identical_to_uninstrumented(self, tiny_problem):
        prob = tiny_problem
        cfg = SolverConfig(max_steps=4)
        q0 = prob.initial.flat()
        plain = NKSSolver(prob.disc, cfg).solve(q0)
        rec = TraceRecorder()
        traced = NKSSolver(prob.disc, cfg, recorder=rec).solve(q0)
        assert np.array_equal(plain.final_state, traced.final_state)
        assert plain.num_steps == traced.num_steps
        assert [s.fnorm for s in plain.steps] == \
               [s.fnorm for s in traced.steps]
        assert plain.total_linear_iterations == traced.total_linear_iterations

    def test_solver_records_expected_phases_and_counters(self, tiny_problem):
        prob = tiny_problem
        rec = TraceRecorder()
        report = NKSSolver(prob.disc, SolverConfig(max_steps=3),
                           recorder=rec).solve(prob.initial.flat())
        for phase in ("flux", "jacobian", "krylov", "precond_setup",
                      "trisolve", "orthogonalization"):
            assert rec.phase_seconds(phase) > 0, phase
        assert set(rec.phases()) <= KNOWN_PHASES
        assert rec.counter("newton_steps") == report.num_steps
        assert rec.counter("linear_iterations") == \
            report.total_linear_iterations
        # orthogonalization nests inside krylov: self < inclusive.
        assert rec.self_seconds("krylov") < rec.phase_seconds("krylov")


class TestMeasuredTable3:
    def test_eta_identity_and_trace_dump(self, tmp_path):
        from repro.experiments import run_table3_measured

        result = run_table3_measured(procs=(2, 4), size="small",
                                     max_steps=2)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.time > 0
            assert abs(row.eta_overall - row.eta_alg * row.eta_impl) < 1e-12
        ref = result.rows[0]
        assert ref.eta_overall == 1.0 and ref.speedup == 1.0
        # The recorded solves' own iteration counts feed eta_alg.
        assert result.rows[1].eta_alg == pytest.approx(
            ref.its / result.rows[1].its)
        for row in result.rows:
            p = row.nprocs
            # Each row's recorder dumps to a trace that loads back valid.
            write_trace(tmp_path / f"trace_p{p}.json", result.traces[p],
                        meta={"nprocs": p, "linear_its": row.its})
            doc = load_trace(tmp_path / f"trace_p{p}.json")
            assert doc["meta"]["nprocs"] == p
            assert doc["meta"]["linear_its"] == row.its
            # One solve per row: its iterations are the trace's counter.
            assert row.its == result.traces[p].counter("linear_iterations")
            assert "ghost_exchange" in doc["phases"]
            assert "orthogonalization" in doc["phases"]
            assert row.phase_pct["orthogonalization"] > 0
            for phase in ("flux", "matvec"):     # one entry per rank
                assert len(doc["phases"][phase]) == p
        # to_table() renders without error and carries every row.
        table = result.to_table()
        assert len(table.rows) == 2

    def test_measured_wall_sums_phase_walls(self):
        rec = TraceRecorder()
        rec.record_wait("flux", [1.0, 2.0])
        rec.record_wait("matvec", [0.5, 0.25])
        assert measured_wall(rec) == pytest.approx(
            rec.phase_wall("flux") + rec.phase_wall("matvec"))

    def test_measured_rows_reference_normalisation(self):
        # Synthetic traces: pure waits give deterministic walls.
        def mk(wall):
            rec = TraceRecorder()
            rec.record_wait("flux", [wall, 0.0])
            return rec
        rows = measured_rows([(4, 30, mk(0.5)), (2, 20, mk(1.0))])
        assert [r.nprocs for r in rows] == [2, 4]    # sorted, ref first
        r4 = rows[1]
        assert r4.speedup == pytest.approx(2.0)
        assert r4.eta_alg == pytest.approx(20 / 30)
        assert abs(r4.eta_overall - r4.eta_alg * r4.eta_impl) < 1e-12
