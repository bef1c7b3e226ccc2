"""The state-hash trails of ``repro.sanitize``.

Covered: trail unit behaviour, and a live ProcPool under
``REPRO_SANITIZE=1`` whose results and trails match the seq rank loop.
"""

import numpy as np
import pytest

from repro.sanitize import (HashTrail, capture, enabled, first_divergence,
                            note, state_hash)


@pytest.fixture
def sanitize_on(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


@pytest.fixture
def sanitize_off(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


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
    """A live pool with the sanitize flag set in its workers."""

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
        # The pool is created under the flag: workers inherit it at fork.
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
