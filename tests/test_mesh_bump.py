"""The transonic bump geometry."""

import numpy as np

from repro.mesh import bump_mesh, compute_dual_metrics
from tests.helpers import closure_defect


class TestBumpMesh:
    def test_valid(self):
        m = bump_mesh(11, 4, 6)
        assert np.all(m.tet_volumes() > 0)
        dm = compute_dual_metrics(m)
        assert closure_defect(dm, m.edges).max() < 1e-11

    def test_bump_raises_floor(self):
        m = bump_mesh(17, 4, 6)
        floor = m.coords[:17 * 4]           # the k = 0 layer, not jittered
        # Mid-channel floor points sit above z=0; entrance/exit at z=0.
        mid = floor[np.abs(floor[:, 0] - 0.5) < 0.1]
        ends = floor[floor[:, 0] < 0.2]
        assert mid[:, 2].max() > 0.05
        assert np.all(np.abs(ends[:, 2]) < 1e-12)

    def test_volume_reduced_by_bump(self):
        from repro.mesh import box_mesh
        flat = box_mesh(11, 4, 6)
        bumped = bump_mesh(11, 4, 6)
        assert bumped.tet_volumes().sum() < flat.tet_volumes().sum()

    def test_same_connectivity_as_box(self):
        from repro.mesh import box_mesh
        b = bump_mesh(9, 4, 5)
        r = box_mesh(9, 4, 5, jitter=0.15)
        assert np.array_equal(b.edges, r.edges)

