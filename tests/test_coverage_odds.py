"""Odds-and-ends coverage: error branches and small accessors that the
main suites exercise only implicitly."""

import numpy as np
import pytest

from repro.memory import CacheConfig
from repro.memory.hierarchy import HierarchyCounters, MemoryHierarchy
from repro.memory.tlb import TLBConfig
from repro.perfmodel import ORIGIN2000_R10K
from repro.solvers import gmres
from repro.sparse import BSRMatrix, CSRMatrix
from tests.helpers import csr_from_dense


class TestHierarchyCounters:
    def test_row(self):
        c = HierarchyCounters(accesses=1000, l1_misses=100, l2_misses=20,
                              tlb_misses=5)
        assert c.row()["tlb_misses"] == 5


class TestHierarchyCountersOfTraces:
    L1 = CacheConfig("l1", 1024, 32, 2)
    L2 = CacheConfig("l2", 8192, 64, 4)
    TLB = TLBConfig("tlb", 8, 4096)

    def test_state_carries_across_traces(self):
        """A trace that fits in L1 run twice misses only the first
        time: the second kernel sees the lines the first left."""
        trace = np.arange(0, 512, 8)

        def hier():
            return MemoryHierarchy(self.L1, self.L2, self.TLB)
        once = hier().run(trace).counters
        twice = hier().run(trace).run(trace).counters
        assert once.l1_misses == 512 // 32
        assert twice.accesses == 2 * once.accesses
        assert (twice.l1_misses, twice.l2_misses, twice.tlb_misses) == \
            (once.l1_misses, once.l2_misses, once.tlb_misses)


class TestSparseEdgeCases:
    def test_empty_coo(self):
        m = CSRMatrix.from_coo(np.array([], dtype=int),
                               np.array([], dtype=int),
                               np.array([]), (3, 3))
        assert m.nnz == 0
        assert np.allclose(m @ np.ones(3), 0)

    def test_bsr_mismatched_structure_rejected(self):
        with pytest.raises(ValueError):
            BSRMatrix(indptr=np.array([0, 2]), indices=np.array([0]),
                      data=np.ones((1, 2, 2)), nbcols=1)

    def test_csr_row_access(self):
        m = csr_from_dense(np.array([[1.0, 0.0], [2.0, 3.0]]))
        cols, vals = m.row(1)
        assert cols.tolist() == [0, 1]
        assert vals.tolist() == [2.0, 3.0]

    def test_matmul_operator(self):
        m = CSRMatrix.eye(3, 2.0)
        assert np.allclose(m @ np.ones(3), 2.0)


class TestGMRESEdgeCases:
    def test_maxiter_zero_returns_initial(self):
        a = np.eye(4) * 2
        b = np.ones(4)
        res = gmres(a, b, maxiter=0)
        assert not res.converged
        assert res.iterations == 0
        assert np.allclose(res.x, 0)

    def test_singular_consistent_system(self):
        """Happy breakdown: GMRES finds the minimal-residual solution of
        a consistent singular system."""
        a = np.diag([1.0, 2.0, 0.0])
        b = np.array([1.0, 2.0, 0.0])
        res = gmres(a, b, rtol=1e-12, maxiter=10)
        assert np.allclose(a @ res.x, b, atol=1e-9)


class TestCacheConfigProps:
    def test_words(self):
        c = CacheConfig("t", 4096, 64, 2)
        assert c.capacity_words == 512
        assert c.line_words == 8

    def test_counters_api(self):
        from repro.memory import simulate_trace
        c = simulate_trace(np.array([0, 8, 16]), CacheConfig("t", 256, 32, 1))
        assert c.accesses == 3
        assert c.hits == 2


class TestStructureHelpers:
    def test_edge_not_in_list_raises(self, tiny_mesh):
        from repro.mesh.edges import tet_edge_indices
        bad_edges = tiny_mesh.edges[:-5]   # drop some edges
        with pytest.raises(ValueError):
            tet_edge_indices(tiny_mesh.tets, bad_edges,
                             tiny_mesh.num_vertices)

    def test_block_structure_rejects_self_duplicates(self):
        from repro.sparse import block_structure_from_edges
        with pytest.raises(ValueError):
            block_structure_from_edges(4, np.array([[0, 1], [1, 0]]))


class TestScaledMachineEdge:
    def test_scale_one_is_identityish(self):
        s = ORIGIN2000_R10K.scaled_caches(1)
        assert s.l2.capacity_bytes == ORIGIN2000_R10K.l2.capacity_bytes
        assert s.tlb.page_bytes == ORIGIN2000_R10K.tlb.page_bytes

    def test_huge_scale_floors(self):
        s = ORIGIN2000_R10K.scaled_caches(1e9)
        assert s.l1.capacity_bytes >= s.l1.line_bytes * s.l1.associativity
        assert s.tlb.page_bytes >= 256
