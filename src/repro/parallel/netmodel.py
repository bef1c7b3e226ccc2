"""Alpha-beta network model with packing-aware scatter bandwidth.

Two communication primitives appear in the NKS inner loop:

* **ghost-point scatters** — neighbour exchanges.  Their cost is
  dominated not by the wire but by *message packing/unpacking*
  (strided gathers through the memory system) plus per-message
  latency; this is why the paper's measured "application level
  effective bandwidth" (~4 MB/s/node) sits two orders below the
  hardware link bandwidth.  We model payload cost as
  ``bytes / (pack_efficiency * stream_bw)`` capped by the wire.
* **global reductions** — log2(P) latency-bound combining tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.machines import MachineSpec

__all__ = ["NetworkModel", "network_from_machine"]


@dataclass(frozen=True)
class NetworkModel:
    alpha: float                 # per-message latency, seconds
    beta: float                  # wire bandwidth, bytes/s
    pack_bw: float               # effective pack/unpack bandwidth, bytes/s

    def scatter_time(self, messages: int, payload_bytes: float) -> float:
        """One rank's ghost exchange: latency per neighbour message plus
        payload through min(wire, packing) bandwidth."""
        eff = min(self.beta, self.pack_bw)
        return self.alpha * messages + payload_bytes / eff

    def allreduce_time(self, nranks: int, payload_bytes: float = 8.0) -> float:
        """Combining-tree allreduce: ceil(log2 P) latency stages."""
        if nranks <= 1:
            return 0.0
        stages = int(np.ceil(np.log2(nranks)))
        return stages * (self.alpha + payload_bytes / self.beta)


def network_from_machine(machine: MachineSpec, *,
                         pack_efficiency: float = 0.03) -> NetworkModel:
    """Derive the network model from a machine sheet.

    ``pack_efficiency`` is the fraction of STREAM bandwidth the
    scatter's strided pack/unpack achieves end to end (gathers with
    index loads, two copies, MPI overhead, contention).  The default
    0.03 reproduces the order of magnitude of the paper's measured
    ~4 MB/s/node effective scatter bandwidth on ASCI Red
    (0.03 x 150 MB/s = 4.5 MB/s).
    """
    return NetworkModel(alpha=machine.net_alpha, beta=machine.net_beta,
                        pack_bw=pack_efficiency * machine.stream_bw)
