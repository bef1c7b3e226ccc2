"""Address-trace generators and the hierarchy runner."""

import numpy as np
import pytest

from repro.memory import (CacheConfig, MemoryHierarchy, flux_loop_trace,
                          spmv_bsr_trace, spmv_csr_trace)
from repro.memory.tlb import TLBConfig
from tests.helpers import csr_from_dense
from tests.test_sparse_bsr import random_bsr


@pytest.fixture(scope="module")
def csr(rng):
    a = rng.random((30, 30))
    a[a < 0.7] = 0
    a += np.eye(30)
    return csr_from_dense(a)


class TestSpMVTrace:
    def test_length(self, csr):
        tr = spmv_csr_trace(csr)
        # 3 per nonzero + rowptr + y per row.
        assert tr.size == 3 * csr.nnz + 2 * csr.nrows

    def test_distinct_arrays_dont_collide(self, csr):
        tr = spmv_csr_trace(csr)
        # All addresses positive, and the number of distinct 1 MiB
        # regions matches the five arrays.
        assert tr.min() > 0
        regions = np.unique(tr >> 20)
        assert regions.size >= 4

    def test_bsr_fewer_index_refs(self):
        m = random_bsr(8, 4, 0.5, 0)
        tb = spmv_bsr_trace(m)
        ts = spmv_csr_trace(m.to_csr())
        # Same value count, far fewer index reads -> shorter trace.
        assert tb.size < ts.size

    def test_x_gather_addresses_reflect_columns(self, csr):
        tr = spmv_csr_trace(csr)
        # The x gathers are the 3rd element of each nonzero triplet;
        # their relative offsets reproduce the column indices.
        # Recover by looking at the most common region.
        # (Smoke check: as many distinct x addresses as distinct cols.)
        region = tr >> 20
        vals, counts = np.unique(region, return_counts=True)
        assert counts.max() >= csr.nnz  # data region or x region


class TestFluxTrace:
    def test_length_interlaced(self, small_mesh):
        tr = flux_loop_trace(small_mesh.edges, small_mesh.num_vertices, 4)
        ne = small_mesh.num_edges
        # indices, q[a], q[b], normal, coords (3+3), gradients (12+12),
        # residual read + write at both ends
        per_edge = 2 + 4 + 4 + 3 + 6 + 24 + 4 * 4
        assert tr.size == ne * per_edge

    def test_gradient_and_coord_reads_follow_endpoints(self, small_mesh):
        tr = flux_loop_trace(small_mesh.edges, small_mesh.num_vertices, 4)
        ne = small_mesh.num_edges
        rows = tr.reshape(ne, -1)
        d = (small_mesh.edges[:, 0] - small_mesh.edges[:, 1])[:, None]
        x_a, x_b = rows[:, 13:16], rows[:, 16:19]
        g_a, g_b = rows[:, 19:31], rows[:, 31:43]
        # coords are 3 values per vertex, gradients 4 x 3 per vertex,
        # each block read contiguously.
        assert np.array_equal(x_a - x_b, np.broadcast_to(8 * 3 * d, x_a.shape))
        assert np.array_equal(g_a - g_b, np.broadcast_to(8 * 12 * d, g_a.shape))
        assert np.all(np.diff(g_a, axis=1) == 8)
        assert np.all(np.diff(x_b, axis=1) == 8)

    def test_residual_read_then_written(self, small_mesh):
        tr = flux_loop_trace(small_mesh.edges, small_mesh.num_vertices, 4)
        rows = tr.reshape(small_mesh.num_edges, -1)
        q_a, q_b = rows[:, 2:6], rows[:, 6:10]
        r = rows[:, -16:].reshape(-1, 4, 4)
        # each endpoint's residual block is read and then written ...
        assert np.array_equal(r[:, 0], r[:, 1])
        assert np.array_equal(r[:, 2], r[:, 3])
        # ... at the same vertex as the state block it was fluxed from
        off = r[:, 0] - q_a
        assert np.all(off == off[0, 0])
        assert np.array_equal(r[:, 2] - q_b, off)

    def test_noninterlaced_spreads_pages(self, small_mesh):
        """Field-split layout touches ~ncomp x more pages per stencil."""
        page = 4096
        ti = flux_loop_trace(small_mesh.edges, small_mesh.num_vertices, 4,
                             interlaced=True)
        tn = flux_loop_trace(small_mesh.edges, small_mesh.num_vertices, 4,
                             interlaced=False)
        # Pages touched per 64-access window, averaged (proxy for TLB
        # pressure): noninterlaced must be larger.
        def pages_per_window(tr):
            w = 64
            m = tr.size // w
            pg = (tr[: m * w] // page).reshape(m, w)
            return np.mean([np.unique(row).size for row in pg])
        assert pages_per_window(tn) > pages_per_window(ti)

    def test_edge_order_changes_trace(self, small_mesh, rng):
        perm = rng.permutation(small_mesh.num_edges)
        t1 = flux_loop_trace(small_mesh.edges, small_mesh.num_vertices, 4)
        t2 = flux_loop_trace(small_mesh.edges[perm],
                             small_mesh.num_vertices, 4)
        assert not np.array_equal(t1, t2)
        assert np.array_equal(np.sort(np.unique(t1)), np.sort(np.unique(t2)))


class TestHierarchy:
    def test_l2_sees_only_l1_misses(self, small_mesh):
        l1 = CacheConfig("L1", 1024, 32, 2)
        l2 = CacheConfig("L2", 8192, 32, 2)
        tlb = TLBConfig("TLB", 8, 4096)
        tr = flux_loop_trace(small_mesh.edges, small_mesh.num_vertices, 4)
        h = MemoryHierarchy(l1, l2, tlb).run(tr)
        c = h.counters
        assert c.l2_misses <= c.l1_misses <= c.accesses
        assert h.l2.accesses == c.l1_misses

    def test_tlb_sees_everything(self, small_mesh):
        l1 = CacheConfig("L1", 1024, 32, 2)
        l2 = CacheConfig("L2", 8192, 32, 2)
        tlb = TLBConfig("TLB", 8, 4096)
        tr = spmv_csr_trace_of(small_mesh)
        h = MemoryHierarchy(l1, l2, tlb).run(tr)
        assert h.tlb.accesses == tr.size

    def test_counters_accumulate_across_runs(self, small_mesh):
        l1 = CacheConfig("L1", 1024, 32, 2)
        l2 = CacheConfig("L2", 8192, 32, 2)
        tlb = TLBConfig("TLB", 8, 4096)
        tr = flux_loop_trace(small_mesh.edges, small_mesh.num_vertices, 4)
        h = MemoryHierarchy(l1, l2, tlb)
        h.run(tr)
        a1 = h.counters.accesses
        h.run(tr)
        assert h.counters.accesses == 2 * a1


def spmv_csr_trace_of(mesh):
    from repro.sparse import block_structure_from_edges, assemble_bsr
    st = block_structure_from_edges(mesh.num_vertices, mesh.edges)
    a = assemble_bsr(st, 1,
                     np.ones((mesh.num_vertices, 1, 1)),
                     np.ones((mesh.num_edges, 1, 1)),
                     np.ones((mesh.num_edges, 1, 1)))
    return spmv_csr_trace(a.to_csr())


class TestOrderingEffects:
    """The Fig. 3 mechanism, in miniature."""

    def test_reordering_cuts_tlb_misses(self):
        from repro.mesh import (apply_orderings, shuffle_vertices,
                                unit_cube_mesh)
        m = shuffle_vertices(unit_cube_mesh(10, jitter=0.2), seed=3)
        # >= number of arrays a second-order stencil touches, so a
        # well-ordered walk can actually hold its working pages.
        tlb = TLBConfig("TLB", 24, 4096)
        l1 = CacheConfig("L1", 4096, 32, 2)
        l2 = CacheConfig("L2", 32768, 64, 2)

        def tlb_misses(mesh):
            tr = flux_loop_trace(mesh.edges, mesh.num_vertices, 4)
            return MemoryHierarchy(l1, l2, tlb).run(tr).counters.tlb_misses

        bad = tlb_misses(apply_orderings(m, "natural", "colored"))
        good = tlb_misses(apply_orderings(m, "rcm", "sorted"))
        assert good < bad / 5

    def test_interlacing_cuts_l1_misses(self):
        from repro.mesh import shuffle_vertices, unit_cube_mesh
        m = shuffle_vertices(unit_cube_mesh(10, jitter=0.2), seed=3)
        l1 = CacheConfig("L1", 8192, 32, 2)
        l2 = CacheConfig("L2", 65536, 64, 2)
        tlb = TLBConfig("TLB", 16, 4096)

        def l1_misses(interlaced):
            tr = flux_loop_trace(m.edges, m.num_vertices, 4,
                                 interlaced=interlaced)
            return MemoryHierarchy(l1, l2, tlb).run(tr).counters.l1_misses

        assert l1_misses(True) < l1_misses(False)
