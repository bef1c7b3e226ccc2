"""The runtime parallel-safety sanitizer (``repro.sanitize``).

Covered: interval-ledger unit behaviour (the owned-row partition check
ProcPool arms), the shm header-slot echo (coordinator/worker schema
mismatch), state-hash trails, and a live ProcPool under
``REPRO_SANITIZE=1``.
"""

import numpy as np
import pytest

from repro.sanitize import (HashTrail, SanitizeError, SlotTracker,
                            WriteSanitizer, capture, check_header_echo,
                            enabled, first_divergence, mask_of, note,
                            state_hash, track_slots)


@pytest.fixture
def sanitize_on(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


@pytest.fixture
def sanitize_off(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


class TestWriteSanitizerLedger:
    def test_cross_owner_overlap_raises(self):
        san = WriteSanitizer("x")
        san.claim("a", 0, 8)
        with pytest.raises(SanitizeError, match="already written by 'a'"):
            san.claim("b", 4, 12)

    def test_same_owner_rewrite_is_fine(self):
        san = WriteSanitizer("x")
        san.claim("a", 0, 8)
        san.claim("a", 0, 8)

    def test_disjoint_keys_never_collide(self):
        san = WriteSanitizer("x")
        san.claim("a", 0, 8, key="lhs")
        san.claim("b", 0, 8, key="rhs")

    def test_empty_interval_is_a_noop(self):
        san = WriteSanitizer("x")
        san.claim("a", 0, 8)
        san.claim("b", 5, 5)

    def test_claim_indices_coalesces_runs(self):
        san = WriteSanitizer("x")
        san.claim_indices("a", [0, 1, 2, 7, 8])
        # The gap [3, 7) stays unclaimed; a disjoint owner may take it.
        san.claim("b", 3, 7)
        with pytest.raises(SanitizeError):
            san.claim("c", 8, 9)

    def test_claim_indices_accepts_boolean_masks(self):
        san = WriteSanitizer("x")
        mask = np.zeros(10, dtype=bool)
        mask[2:5] = True
        san.claim_indices("a", mask)
        with pytest.raises(SanitizeError):
            san.claim("b", 4, 6)

    def test_require_cover_flags_gaps(self):
        san = WriteSanitizer("rows")
        san.claim_indices("r0", [0, 1, 2])
        san.claim_indices("r1", [5, 6, 7])
        with pytest.raises(SanitizeError, match="coverage gap"):
            san.require_cover(0, 8)

    def test_require_cover_passes_on_partition(self):
        san = WriteSanitizer("rows")
        san.claim_indices("r0", [0, 1, 2, 3])
        san.claim_indices("r1", [4, 5, 6, 7])
        san.require_cover(0, 8)


class TestHeaderEcho:
    def test_slot_tracker_records_scalar_reads_and_writes(self):
        hdr = track_slots(np.zeros(8, dtype=np.int64))
        hdr[3] = 42
        _ = hdr[3]
        _ = hdr[5]
        assert hdr.writes == {3}
        assert hdr.reads == {3, 5}
        assert np.asarray(hdr)[3] == 42

    def test_whole_array_store_counts_every_slot(self):
        hdr = track_slots(np.zeros(4, dtype=np.int64))
        hdr[:] = 0
        assert hdr.writes == {0, 1, 2, 3}

    def test_tracker_is_a_live_view_of_the_header(self):
        base = np.zeros(4, dtype=np.int64)
        hdr = track_slots(base)
        hdr[2] = 7
        assert base[2] == 7

    def test_mask_of_with_exclusion(self):
        assert mask_of({0, 1, 3}) == 0b1011
        assert mask_of({0, 1, 3}, exclude=(3,)) == 0b0011

    def test_read_of_unwritten_slot_raises_with_name(self):
        written = mask_of({0, 1})
        read = mask_of({0, 2})
        with pytest.raises(SanitizeError, match="schema drift") as exc:
            check_header_echo(written, read, {2: "_H_ARG"})
        assert "2 (_H_ARG)" in str(exc.value)

    def test_reads_subset_of_writes_passes(self):
        check_header_echo(mask_of({0, 1, 2}), mask_of({1, 2}))
        check_header_echo(mask_of({0}), 0)

    def test_cumulative_writes_cover_later_reads(self):
        # Matrix descriptor slots are written once and read by every
        # later op — the check must run against the cumulative mask.
        written = mask_of({0, 1}) | mask_of({5, 6})
        check_header_echo(written, mask_of({5}))


class TestStateHash:
    def test_hash_is_content_sensitive(self):
        a = np.arange(8, dtype=np.float64)
        b = a.copy()
        assert state_hash(a) == state_hash(b)
        b[3] = np.nextafter(b[3], np.inf)   # a single-ulp flip is enough
        assert state_hash(a) != state_hash(b)

    def test_hash_distinguishes_dtype_and_shape(self):
        a = np.zeros(8, dtype=np.float64)
        assert state_hash(a) != state_hash(a.astype(np.float32))
        assert state_hash(a) != state_hash(a.reshape(2, 4))

    def test_note_records_only_inside_capture(self, sanitize_on):
        note("orphan", np.zeros(2))     # no active capture: dropped
        with capture("run") as trail:
            note("residual", np.zeros(2))
            note("dot", np.ones(1))
        assert [p for p, _ in trail.steps] == ["residual", "dot"]

    def test_note_is_a_noop_when_disabled(self, sanitize_off):
        with capture("run") as trail:
            note("residual", np.zeros(2))
        assert len(trail) == 0

    def test_first_divergence_pinpoints_step_and_phase(self):
        a, b = HashTrail("seq"), HashTrail("proc")
        x = np.arange(4, dtype=np.float64)
        for t in (a, b):
            t.record("residual", x)
            t.record("matvec", x * 2)
        a.record("dot", np.array([1.0]))
        b.record("dot", np.array([2.0]))
        d = first_divergence(a, b)
        assert d["step"] == 2 and d["phase"] == "dot"
        assert d["seq"]["hash"] != d["proc"]["hash"]

    def test_equivalent_trails_return_none(self):
        a, b = HashTrail("seq"), HashTrail("proc")
        for t in (a, b):
            t.record("residual", np.arange(4, dtype=np.float64))
        assert first_divergence(a, b) is None

    def test_length_mismatch_names_the_short_trail(self):
        a, b = HashTrail("seq"), HashTrail("proc")
        a.record("residual", np.zeros(2))
        a.record("dot", np.ones(1))
        b.record("residual", np.zeros(2))
        d = first_divergence(a, b)
        assert d == {"step": 1, "phase": "dot", "missing_in": "proc"}


class TestProcPoolUnderSanitizer:
    """A live pool with the header echo + partition checks armed."""

    @pytest.fixture(scope="class")
    def problem(self):
        from repro.euler import wing_problem
        from repro.parallel import SPMDLayout
        from repro.partition import kway_partition

        prob = wing_problem(6, 5, 4)
        labels = kway_partition(prob.mesh.vertex_graph(), 4, seed=0)
        layout = SPMDLayout.build(prob.mesh.edges, labels)
        rng = np.random.default_rng(0)
        q = prob.initial.flat() + 0.05 * rng.standard_normal(
            prob.disc.num_unknowns)
        return prob, layout, q

    def test_pool_ops_stay_bitwise_with_checks_armed(self, problem,
                                                     monkeypatch):
        from repro.parallel import (ProcPool, distributed_matvec,
                                    distributed_residual)

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert enabled()
        prob, layout, q = problem
        a = prob.disc.assemble_jacobian(q)
        # The pool must be created under the flag: workers inherit it at
        # fork, and the partition/echo instrumentation arms in __init__.
        with ProcPool(layout, prob.disc, nworkers=2) as pool:
            f_seq = distributed_residual(prob.disc, layout, q,
                                         executor="seq")
            f_proc = distributed_residual(prob.disc, layout, q,
                                          executor=pool)
            assert np.array_equal(f_seq, f_proc)
            y_seq = distributed_matvec(a, layout, q, executor="seq")
            y_proc = distributed_matvec(a, layout, q, executor=pool)
            assert np.array_equal(y_seq, y_proc)

    def test_trails_agree_across_executors(self, problem, monkeypatch):
        from repro.parallel import ProcPool, distributed_residual

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        prob, layout, q = problem
        with ProcPool(layout, prob.disc, nworkers=2) as pool:
            with capture("seq") as seq_trail:
                distributed_residual(prob.disc, layout, q, executor="seq")
            with capture("proc") as proc_trail:
                distributed_residual(prob.disc, layout, q, executor=pool)
        assert len(seq_trail) == len(proc_trail) == 1
        assert first_divergence(seq_trail, proc_trail) is None
