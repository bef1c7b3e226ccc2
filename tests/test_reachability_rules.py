"""The knob scan's rules, each on a few lines of synthetic source.

``tests/test_reachability.py`` runs the scan over the whole repository; here a
two-function module ``repro.m`` and one caller file pin what the scan
counts as setting a knob, and what the oracle patterns allow."""

import ast

from tests.test_reachability import REPO, _allowed, _unset_knobs

_LIB = ast.parse("def f(a=1, seed=0): pass\ndef g(a=1): pass")


def _scan(caller, path="examples/demo.py", lib=_LIB):
    """The unset knobs of ``repro.m`` (``lib``) when ``caller``, at
    ``path``, is the one file besides ``lib`` that calls into it."""
    tree = ast.parse("from repro.m import f, g\n" + caller)
    return _unset_knobs((("repro.m", lib),), (
        (None, REPO / path, tree), ("repro.m", REPO / "src/repro/m.py", lib)))


def test_a_callable_passed_as_a_value_sets_no_knob():
    assert _scan("_default(f)") == {"repro.m.f.a", "repro.m.f.seed",
                                    "repro.m.g.a"}


def test_a_default_literal_sets_no_knob():
    assert _scan("f(seed=0, a=2)") == {"repro.m.f.seed", "repro.m.g.a"}


def test_a_loop_over_named_callables_calls_each():
    assert _scan('for _, h in (("x", f), ("y", g)):\n    h(a=2)') == {
        "repro.m.f.seed"}


def test_a_forwarded_parameter_is_set_where_its_def_is_called_with_it():
    lib = ast.parse("def f(a=1, seed=0): pass\ndef g(b=2): f(a=b)")
    assert _scan("g()", lib=lib) == {"repro.m.f.a", "repro.m.f.seed",
                                     "repro.m.g.b"}
    assert _scan("g(b=3)", lib=lib) == {"repro.m.f.seed"}


def test_a_forwarded_kwargs_sets_what_its_callers_pass():
    lib = ast.parse("def f(a=1, seed=0): pass\ndef g(**kw): f(**kw)")
    assert _scan("g(a=2)", lib=lib) == {"repro.m.f.seed"}
    assert _scan("g(**{})", lib=lib) == set()


def test_the_benchmark_sets_a_knob_to_its_default():
    assert _scan("f(seed=0, a=1)", "benchmarks/e2e/demo.py") == {
        "repro.m.g.a"}


def test_oracle_patterns_match_defs_and_their_parameters_only():
    assert not _allowed("repro.m.f.x_ref", knob=True)
    assert _allowed("repro.sparse.ilu.ilu_bsr_ref.pattern", knob=True)
