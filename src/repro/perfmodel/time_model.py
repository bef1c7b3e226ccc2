"""Kernel execution-time prediction from simulated miss counters.

The memory-centric model: a kernel's time on a machine is

    T = max( flops / peak_flops,  compulsory_traffic / stream_bw )
        + l1_misses  * t_l1  + l2_misses * t_mem + tlb_misses * t_tlb

where the max term is the throughput floor (whichever resource
saturates) and the penalty terms charge the *latency* of misses the
throughput terms do not cover.  This is deliberately simple — it is
the model class the paper itself uses ("simple performance models",
Sec. 1) — and is used for Table 1's predicted layout ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.hierarchy import HierarchyCounters
from repro.perfmodel.machines import MachineSpec

__all__ = ["KernelPrediction", "kernel_time_from_counters",
           "bandwidth_time", "predict_kernel_time"]


@dataclass
class KernelPrediction:
    """Predicted time decomposition of one kernel invocation."""

    flop_time: float
    bandwidth_time: float
    l1_penalty: float
    l2_penalty: float
    tlb_penalty: float

    @property
    def total(self) -> float:
        return (max(self.flop_time, self.bandwidth_time)
                + self.l1_penalty + self.l2_penalty + self.tlb_penalty)

    def row(self) -> dict[str, float]:
        return {
            "flop_time": self.flop_time,
            "bw_time": self.bandwidth_time,
            "l1_pen": self.l1_penalty,
            "l2_pen": self.l2_penalty,
            "tlb_pen": self.tlb_penalty,
            "total": self.total,
        }


def bandwidth_time(traffic_bytes: float, machine: MachineSpec) -> float:
    return traffic_bytes / machine.stream_bw


def kernel_time_from_counters(counters: HierarchyCounters, flops: float,
                              machine: MachineSpec,
                              compulsory_bytes: float | None = None
                              ) -> KernelPrediction:
    """Predict a kernel's time from its simulated hierarchy counters.

    ``compulsory_bytes``: the kernel's minimum memory traffic; when
    omitted, L2 misses x line size is used (every L2 miss moves one
    line from memory).
    """
    cyc = machine.cycle_time
    if compulsory_bytes is None:
        compulsory_bytes = counters.l2_misses * machine.l2.line_bytes
    return KernelPrediction(
        flop_time=flops / machine.peak_flops,
        bandwidth_time=compulsory_bytes / machine.stream_bw,
        l1_penalty=counters.l1_misses * machine.l1_miss_cycles * cyc,
        l2_penalty=counters.l2_misses * machine.l2_miss_cycles * cyc,
        tlb_penalty=counters.tlb_misses * machine.tlb_miss_cycles * cyc,
    )


def predict_kernel_time(flops: float, traffic_bytes: float,
                        machine: MachineSpec) -> float:
    """Counter-free prediction: the pure throughput model
    max(flop time, bandwidth time).  Used where no trace is simulated
    (e.g. the parallel timeline's per-rank phase costs)."""
    return max(flops / machine.peak_flops,
               traffic_bytes / machine.stream_bw)
