"""The SER pseudo-transient controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import PTCConfig, SERController


class TestSERController:
    def test_cfl_grows_as_residual_drops(self):
        c = SERController(PTCConfig(cfl0=10.0, exponent=1.0))
        c.update(1.0)
        assert c.cfl == pytest.approx(10.0)
        c.update(0.1)
        assert c.cfl == pytest.approx(100.0)
        c.update(0.01)
        assert c.cfl == pytest.approx(1000.0)

    def test_power_law_exponent(self):
        c = SERController(PTCConfig(cfl0=5.0, exponent=0.75))
        c.update(1.0)
        c.update(0.01)
        assert c.cfl == pytest.approx(5.0 * 100**0.75)

    def test_cfl_capped(self):
        c = SERController(PTCConfig(cfl0=10.0, cfl_max=1e4))
        c.update(1.0)
        c.update(1e-12)
        assert c.cfl == 1e4

    def test_cfl_can_shrink_on_residual_growth(self):
        c = SERController(PTCConfig(cfl0=10.0))
        c.update(1.0)
        c.update(4.0)   # residual grew
        assert c.cfl < 10.0

    def test_cfl_floor(self):
        c = SERController(PTCConfig(cfl0=10.0, cfl_min=1.0))
        c.update(1.0)
        c.update(1e9)
        assert c.cfl == 1.0

    def test_order_switching(self):
        cfg = PTCConfig(cfl0=1.0, switch_order_drop=1e-2,
                        first_order_exponent=1.5)
        c = SERController(cfg)
        c.update(1.0)
        assert not c.second_order
        c.update(0.5)
        assert not c.second_order
        c.update(0.009)
        assert c.second_order

    def test_first_order_exponent_used(self):
        cfg = PTCConfig(cfl0=1.0, exponent=0.75, switch_order_drop=1e-6,
                        first_order_exponent=1.5)
        c = SERController(cfg)
        c.update(1.0)
        c.update(0.1)
        assert c.cfl == pytest.approx(10**1.5)

    def test_rejects_bad_norm(self):
        c = SERController(PTCConfig())
        with pytest.raises(ValueError):
            c.update(float("nan"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PTCConfig(cfl0=-1)
        with pytest.raises(ValueError):
            PTCConfig(cfl0=10, cfl_max=5)

    @settings(deadline=None, max_examples=30)
    @given(st.floats(0.1, 100), st.floats(0.25, 1.5),
           st.lists(st.floats(1e-12, 1e3), min_size=1, max_size=20))
    def test_property_cfl_always_in_bounds(self, cfl0, p, norms):
        cfg = PTCConfig(cfl0=cfl0, exponent=p, cfl_max=1e6, cfl_min=1e-3)
        c = SERController(cfg)
        for f in norms:
            cfl = c.update(f)
            assert cfg.cfl_min <= cfl <= cfg.cfl_max
