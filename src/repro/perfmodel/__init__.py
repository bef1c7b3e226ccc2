"""Memory-centric performance models — the paper's analytical core.

* :mod:`machines` — parameter sheets for the paper's machines
  (R10000/Origin 2000, Pentium Pro/ASCI Red, Alpha/T3E, PowerPC
  604e/Blue Pacific), with cache/TLB geometry, STREAM bandwidth, and
  network alpha-beta.
* :mod:`stream` — a numpy STREAM-triad measurement of *this* machine
  plus bandwidth-bound time models.
* :mod:`spmv_model` — the paper's Eq. 1/Eq. 2 conflict-miss bounds and
  the memory-traffic SpMV performance bounds of reference [10].
* :mod:`time_model` — kernel execution-time prediction from simulated
  miss counters and machine parameters.
"""

from repro.perfmodel.machines import (
    MachineSpec,
    ORIGIN2000_R10K,
    ASCI_RED_PPRO,
    CRAY_T3E_600,
    BLUE_PACIFIC_604E,
    MACHINES,
)
from repro.perfmodel.stream import measure_stream_triad, stream_time
from repro.perfmodel.spmv_model import (
    conflict_miss_bound,
    tlb_miss_bound,
    spmv_traffic_bytes,
    spmv_bandwidth_mflops,
    spmv_transfer_estimate,
)
from repro.perfmodel.time_model import (
    kernel_time_from_counters,
    bandwidth_time,
    predict_kernel_time,
    KernelPrediction,
)

__all__ = [
    "MachineSpec",
    "ORIGIN2000_R10K",
    "ASCI_RED_PPRO",
    "CRAY_T3E_600",
    "BLUE_PACIFIC_604E",
    "MACHINES",
    "measure_stream_triad",
    "stream_time",
    "conflict_miss_bound",
    "tlb_miss_bound",
    "spmv_traffic_bytes",
    "spmv_bandwidth_mflops",
    "spmv_transfer_estimate",
    "kernel_time_from_counters",
    "bandwidth_time",
    "predict_kernel_time",
    "KernelPrediction",
]
