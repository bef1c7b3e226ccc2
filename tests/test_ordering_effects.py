"""Second-order ordering effects: ILU fill."""

from repro.mesh import apply_orderings, shuffle_vertices, unit_cube_mesh
from repro.sparse import ilu_symbolic


class TestOrderingAffectsILUFill:
    """Fill-in of ILU(k>0) depends on the elimination order: the
    bandwidth-reducing orderings confine fill near the diagonal — an
    extra (unstated) benefit of the paper's RCM choice."""

    def _fill(self, mesh, k=2):
        from repro.sparse import block_structure_from_edges
        st = block_structure_from_edges(mesh.num_vertices, mesh.edges)
        return ilu_symbolic(st.indptr, st.indices, k).nnz

    def test_rcm_reduces_high_level_fill(self):
        base = shuffle_vertices(unit_cube_mesh(7, jitter=0.2), seed=5)
        random_fill = self._fill(apply_orderings(base, "random", "sorted"))
        rcm_fill = self._fill(apply_orderings(base, "rcm", "sorted"))
        assert rcm_fill < random_fill

    def test_ilu0_fill_order_independent(self):
        base = shuffle_vertices(unit_cube_mesh(6, jitter=0.2), seed=5)
        f1 = self._fill(apply_orderings(base, "random", "sorted"), k=0)
        f2 = self._fill(apply_orderings(base, "rcm", "sorted"), k=0)
        assert f1 == f2     # ILU(0) pattern = matrix pattern, any order
