"""Layout transforms: interlaced vs field-split storage (Sec. 2.1.1)."""

import numpy as np
import pytest

from repro.graph.rcm import bandwidth
from repro.graph.adjacency import graph_from_csr
from repro.sparse import (assemble_bsr, block_structure_from_edges,
                          field_split_csr_from_bsr)
from repro.sparse.layouts import field_split_permutation
from tests.helpers import csr_to_dense


@pytest.fixture(scope="module")
def assembled(small_mesh, rng):
    bs = 4
    st = block_structure_from_edges(small_mesh.num_vertices, small_mesh.edges)
    n, ne = small_mesh.num_vertices, small_mesh.num_edges
    diag = rng.standard_normal((n, bs, bs)) + 8 * np.eye(bs)
    a = assemble_bsr(st, bs, diag,
                     off_ij=rng.standard_normal((ne, bs, bs)),
                     off_ji=rng.standard_normal((ne, bs, bs)))
    return small_mesh, a


class TestBlockStructure:
    def test_pattern_size(self, small_mesh):
        st = block_structure_from_edges(small_mesh.num_vertices,
                                        small_mesh.edges)
        assert st.nnzb == small_mesh.num_vertices + 2 * small_mesh.num_edges

    def test_slots_disjoint_and_complete(self, small_mesh):
        st = block_structure_from_edges(small_mesh.num_vertices,
                                        small_mesh.edges)
        all_slots = np.concatenate([st.diag_slots, st.edge_ij_slots,
                                    st.edge_ji_slots])
        assert np.array_equal(np.sort(all_slots), np.arange(st.nnzb))

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            block_structure_from_edges(3, np.array([[0, 1], [0, 1]]))

    def test_assembly_places_blocks(self, assembled, rng):
        mesh, a = assembled
        dense = csr_to_dense(a.to_csr())
        e = mesh.edges[0]
        bs = a.bs
        blk = dense[bs*e[0]:bs*e[0]+bs, bs*e[1]:bs*e[1]+bs]
        assert not np.allclose(blk, 0)


class TestFieldSplit:
    def test_permutation_is_involution_structure(self, assembled):
        mesh, a = assembled
        perm = field_split_permutation(a.nbrows, a.bs)
        assert np.array_equal(np.sort(perm), np.arange(a.shape[0]))

    def test_spmv_equivalent_under_relabeling(self, assembled, rng):
        mesh, a = assembled
        inter = a.to_csr()
        split = field_split_csr_from_bsr(a)
        perm = field_split_permutation(a.nbrows, a.bs)
        x = rng.random(a.shape[0])
        y_int = inter @ x
        y_split = split @ x[perm]
        assert np.allclose(y_split, y_int[perm])

    def test_field_split_has_wide_bandwidth(self, assembled):
        """The paper's Eq. 1 premise: noninterlaced storage makes the
        matrix bandwidth comparable to N."""
        mesh, a = assembled
        inter = a.to_csr()
        split = field_split_csr_from_bsr(a)
        g_int = graph_from_csr(inter.indptr, inter.indices)
        g_split = graph_from_csr(split.indptr, split.indices)
        n = a.shape[0]
        assert bandwidth(g_split) > 0.7 * n * (a.bs - 1) / a.bs
        assert bandwidth(g_int) < bandwidth(g_split)

    def test_same_nnz(self, assembled):
        mesh, a = assembled
        assert (a.to_csr().nnz
                == field_split_csr_from_bsr(a).nnz)
