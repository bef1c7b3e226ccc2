"""Pseudo-transient continuation (ΨTC) with the SER timestep law.

The paper (Sec. 2.4.1) advances the CFL number by the power-law form
of Van Leer & Mulder's switched evolution/relaxation heuristic:

    N_CFL^l = N_CFL^0 * (||f(u^0)|| / ||f(u^{l-1})||)^p

with tunable initial CFL (Fig. 5 sweeps it) and exponent p (damped to
~0.75 when shocks are expected, up to 1.5 for first-order phases).
This module provides the controller; the time-stepping loop itself
lives in :mod:`repro.core.driver`, which owns the discretisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["PTCConfig", "SERController"]


@dataclass
class PTCConfig:
    """Tunable ΨTC parameters (the paper's 'nonlinear robustness
    continuation parameters')."""

    cfl0: float = 10.0            # initial CFL number N_CFL^0
    exponent: float = 1.0         # SER power p (paper: 0.75 - 1.5)
    cfl_max: float = 1e5          # paper: CFL eventually reaches 1e5
    cfl_min: float = 1e-2
    # Discretisation-order switching (paper: start first-order near
    # shocks, switch to second after 2-4 orders of residual reduction).
    switch_order_drop: float | None = None   # e.g. 1e-2 -> switch at 100x
    first_order_exponent: float | None = None  # p while first-order

    def __post_init__(self) -> None:
        if self.cfl0 <= 0:
            raise ValueError("cfl0 must be positive")
        if self.cfl_max < self.cfl0:
            raise ValueError("cfl_max must be >= cfl0")


@dataclass
class SERController:
    """Stateful SER CFL controller.

    Call :meth:`update` with each new nonlinear residual norm; read
    :attr:`cfl` for the CFL to use on the next pseudo-timestep and
    :attr:`second_order` for the active discretisation order.  With a
    telemetry ``recorder`` attached, ``ser_updates`` and
    ``order_switches`` counters accumulate per update (the controller
    has no timed phase of its own, so it records no spans).
    """

    config: PTCConfig
    fnorm0: float | None = None
    recorder: object = NULL_RECORDER
    cfl: float = field(init=False)
    second_order: bool = field(init=False)

    def __post_init__(self) -> None:
        self.cfl = self.config.cfl0
        # Without an order switch configured, run second-order from the
        # start (the paper's shock-free mode).
        self.second_order = self.config.switch_order_drop is None

    def update(self, fnorm: float) -> float:
        """Take the residual norm ``fnorm``; return the CFL for the next
        step."""
        if not np.isfinite(fnorm) or fnorm < 0:
            raise ValueError(f"bad residual norm {fnorm}")
        if self.fnorm0 is None:
            self.fnorm0 = max(fnorm, 1e-300)
        rec = self.recorder if self.recorder is not None else NULL_RECORDER
        rec.count("ser_updates", 1)
        cfg = self.config
        if (not self.second_order and cfg.switch_order_drop is not None
                and fnorm <= cfg.switch_order_drop * self.fnorm0):
            self.second_order = True
            rec.count("order_switches", 1)
        p = cfg.exponent
        if not self.second_order and cfg.first_order_exponent is not None:
            p = cfg.first_order_exponent
        ratio = self.fnorm0 / max(fnorm, 1e-300)
        self.cfl = float(np.clip(cfg.cfl0 * ratio**p, cfg.cfl_min, cfg.cfl_max))
        return self.cfl
