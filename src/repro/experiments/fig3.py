"""Fig. 3: TLB and secondary-cache miss counters under each layout.

The paper's hardware-counter bars on one R10000: edge reordering cuts
TLB misses by ~two orders of magnitude; reordering + interlacing +
blocking cut L2 misses by ~3.5x.  We regenerate the counters with the
trace-driven simulator (the substitution for the missing hardware) on
the scaled R10000 geometry.

Configurations follow the figure's bars: the 'NOER' vector baseline
(colored edges, no vertex reordering) and the reordered layouts, with
interlacing and blocking toggled.
"""

from __future__ import annotations

from repro.euler.problems import wing_problem
from repro.experiments.common import ExperimentResult, claim
from repro.memory.counters import hierarchy_counters
from repro.memory.trace import flux_loop_trace, spmv_bsr_trace, spmv_csr_trace
from repro.perfmodel.machines import ORIGIN2000_R10K
from repro.sparse.layouts import field_split_csr_from_bsr

__all__ = ["run_fig3", "check_fig3"]

# (label, reorder, interlace, block)
_CONFIGS = [
    ("NOER noninterlaced", False, False, False),
    ("NOER interlaced", False, True, False),
    ("NOER interlaced+blocked", False, True, True),
    ("reordered noninterlaced", True, False, False),
    ("reordered interlaced", True, True, False),
    ("reordered interlaced+blocked", True, True, True),
]


def run_fig3(*, dims=(42, 27, 20), cache_scale: float = 1.0,
             seed: int = 0) -> ExperimentResult:
    """Regenerate the Fig. 3 counter bars (TLB log-scale, L2 linear).

    The defaults run the full-size mesh — ``(42, 27, 20)`` is 22,680
    vertices, matching the paper's 22,677-vertex M6 mesh — against the
    *unscaled* R10000 geometry, which the fast engine makes routine
    (~15M references per configuration).  The CLI's ``--smoke`` passes
    smaller ``dims`` with a matching ``cache_scale``.
    """
    machine = ORIGIN2000_R10K
    if cache_scale != 1:
        machine = machine.scaled_caches(cache_scale)
    result = ExperimentResult(
        name=f"Fig. 3 analogue (R10000 counters, caches/{cache_scale:g})",
        headers=["Config", "Refs", "TLB misses", "L1 misses", "L2 misses"],
    )
    for label, reorder, interlace, block in _CONFIGS:
        vo = "rcm" if reorder else "random"
        eo = "sorted" if reorder else "colored"
        prob = wing_problem(*dims, vertex_ordering=vo, edge_ordering=eo,
                            seed=seed)
        jac = prob.disc.assemble_jacobian(prob.initial.flat())
        if block:
            spmv = spmv_bsr_trace(jac)
        elif interlace:
            spmv = spmv_csr_trace(jac.to_csr())
        else:
            spmv = spmv_csr_trace(field_split_csr_from_bsr(jac))
        flux = flux_loop_trace(prob.mesh.edges, prob.mesh.num_vertices,
                               prob.disc.ncomp, interlaced=interlace)
        c = hierarchy_counters([flux, spmv], machine.l1, machine.l2,
                               machine.tlb)
        result.rows.append([label, c.accesses, c.tlb_misses, c.l1_misses,
                            c.l2_misses])
    return result


def check_fig3(result: ExperimentResult) -> None:
    tlb = {r[0]: r[2] for r in result.rows}
    l2 = {r[0]: r[4] for r in result.rows}
    worst, best = "NOER noninterlaced", "reordered interlaced+blocked"
    # paper: ~2 orders of magnitude on the R10000 counters
    claim(tlb[worst] > 30 * tlb[best]
          and tlb["NOER interlaced"] > 5 * tlb["reordered interlaced"],
          "reordering cuts TLB misses by orders of magnitude")
    # paper: ~3.5x
    claim(l2[worst] > 2.5 * l2[best], "L2 misses drop several-fold")
    claim(tlb["NOER interlaced"] < tlb[worst]
          and l2["NOER interlaced"] < l2[worst],
          "interlacing alone already helps both counters")
