"""Parallel-execution models: layouts priced, work, timeline,
efficiency, hybrid."""

import numpy as np
import pytest

from repro.parallel import (SPMDLayout, build_rank_work,
                            efficiency_decomposition, hybrid_flux_times,
                            network_from_machine, simulate_solve)
from repro.parallel.netmodel import NetworkModel
from repro.parallel.simulate import scatter_counts
from repro.partition import kway_partition
from repro.perfmodel import ASCI_RED_PPRO


def _layout(mesh, labels):
    return SPMDLayout.build(mesh.edges, labels)


@pytest.fixture(scope="module")
def partitioned(medium_mesh):
    labels = kway_partition(medium_mesh.vertex_graph(), 8, seed=0)
    return _layout(medium_mesh, labels), labels


class TestExchangePlan:
    """The scatter the model prices: the layout's ScatterPlan."""

    def test_owned_covers_graph(self, partitioned, medium_mesh):
        layout, _ = partitioned
        assert sum(rd.n_owned for rd in layout.ranks) == \
            medium_mesh.num_vertices

    def test_ghosts_are_cut_neighbors(self, partitioned, medium_mesh):
        layout, labels = partitioned
        g = medium_mesh.vertex_graph()
        _, received, _ = scatter_counts(layout.plan)
        assert np.all(received > 0)          # every part has a boundary
        for rd in layout.ranks:
            nbrs = np.unique(np.concatenate(
                [g.neighbors(int(v)) for v in rd.owned]))
            assert np.array_equal(rd.ghosts,
                                  nbrs[labels[nbrs] != rd.rank])

    def test_sends_equal_ghost_copies(self, partitioned):
        layout, labels = partitioned
        _, received, sent = scatter_counts(layout.plan)
        assert sent.sum() == received.sum() == layout.plan.ghost_rows
        # Each owner sends one copy of a vertex per rank that ghosts it.
        ghosts = np.concatenate([rd.ghosts for rd in layout.ranks])
        assert np.array_equal(sent, np.bincount(labels[ghosts],
                                                minlength=layout.nranks))

    def test_single_part_no_comm(self, medium_mesh):
        layout = _layout(medium_mesh,
                         np.zeros(medium_mesh.num_vertices, dtype=np.int64))
        messages, received, sent = scatter_counts(layout.plan)
        assert received.sum() == sent.sum() == 0
        assert messages.max(initial=0) == 0
        assert build_rank_work(layout, 4)[0].halo_edges == 0

    def test_ghost_fraction_grows_with_parts(self, medium_mesh):
        """The paper's surface-to-volume law: more subdomains => a
        larger fraction of shared points (Sec. 2.3.1)."""
        g = medium_mesh.vertex_graph()
        fracs = []
        for p in (4, 32):
            layout = _layout(medium_mesh, kway_partition(g, p, seed=0))
            fracs.append(np.mean([rd.ghosts.size / max(rd.n_owned, 1)
                                  for rd in layout.ranks]))
        assert fracs[1] > fracs[0]

    def test_total_bytes_scale_with_ncomp(self, partitioned):
        layout, _ = partitioned
        machine = ASCI_RED_PPRO
        net = network_from_machine(machine)
        payload = [simulate_solve(build_rank_work(layout, ncomp),
                                  layout.plan, machine, net,
                                  linear_its_per_step=[1])
                   .payload_per_linear_it for ncomp in (4, 2)]
        assert payload[0] == 2 * payload[1] == \
            layout.plan.ghost_rows * 4 * 8


class TestRankWork:
    def test_edge_partition_identity(self, partitioned, medium_mesh):
        layout, _ = partitioned
        works = build_rank_work(layout, 4)
        total_interior = sum(w.interior_edges for w in works)
        total_halo = sum(w.halo_edges for w in works)
        # Each cut edge is counted once per side.
        assert total_interior + total_halo // 2 == medium_mesh.num_edges
        assert all(w.local_edges == w.interior_edges + w.halo_edges
                   for w in works)

    def test_flops_positive_and_scale(self, partitioned):
        layout, _ = partitioned
        w4 = build_rank_work(layout, 4)
        w5 = build_rank_work(layout, 5)
        assert all(w.flux_flops > 0 for w in w4)
        assert w5[0].flux_flops > w4[0].flux_flops
        assert w5[0].spmv_flops > w4[0].spmv_flops

    def test_precond_precision_lever(self, partitioned):
        layout, _ = partitioned
        w8 = build_rank_work(layout, 4, precond_value_bytes=8)
        w4 = build_rank_work(layout, 4, precond_value_bytes=4)
        assert w4[0].pcapply_traffic < w8[0].pcapply_traffic
        assert w4[0].pcapply_flops == w8[0].pcapply_flops

    def test_fill_ratio_lever(self, partitioned):
        layout, _ = partitioned
        lo = build_rank_work(layout, 4, fill_ratio=1.0)
        hi = build_rank_work(layout, 4, fill_ratio=3.0)
        assert hi[0].pcapply_flops > lo[0].pcapply_flops


class TestNetworkModel:
    def test_scatter_time_components(self):
        net = NetworkModel(alpha=1e-5, beta=1e8, pack_bw=1e7)
        t = net.scatter_time(4, 1e6)
        assert t == pytest.approx(4e-5 + 0.1)

    def test_allreduce_log_scaling(self):
        net = NetworkModel(alpha=1e-5, beta=1e8, pack_bw=1e7)
        assert net.allreduce_time(1) == 0.0
        t128 = net.allreduce_time(128)
        t1024 = net.allreduce_time(1024)
        assert t1024 == pytest.approx(t128 * 10 / 7)

    def test_from_machine_effective_bw_order(self):
        """The 3% pack efficiency reproduces the paper's ~4 MB/s
        order of magnitude on ASCI Red."""
        net = network_from_machine(ASCI_RED_PPRO)
        assert 1e6 < net.pack_bw < 2e7


class TestSimulate:
    def _run(self, mesh, labels, machine=ASCI_RED_PPRO, its=None):
        layout = _layout(mesh, labels)
        net = network_from_machine(machine)
        return simulate_solve(build_rank_work(layout, 4), layout.plan,
                              machine, net,
                              linear_its_per_step=its or [15] * 8)

    def test_wall_decreases_with_parts(self, medium_mesh):
        g = medium_mesh.vertex_graph()
        walls = [self._run(medium_mesh,
                           kway_partition(g, p, seed=0)).total_wall
                 for p in (4, 16)]
        assert walls[1] < walls[0]

    def test_scatter_fraction_grows_with_parts(self, medium_mesh):
        """Table 3's scatter column: 3% -> 6% as P grows."""
        g = medium_mesh.vertex_graph()
        pct = [self._run(medium_mesh,
                         kway_partition(g, p, seed=0)).category_percent()
               for p in (4, 32)]
        assert pct[1]["scatter"] > pct[0]["scatter"]

    def test_imbalance_creates_implicit_sync(self, medium_mesh):
        n = medium_mesh.num_vertices
        balanced = np.repeat(np.arange(4), n // 4 + 1)[:n]
        skewed = np.zeros(n, dtype=np.int64)
        skewed[: n // 10] = 1
        skewed[n // 10: n // 5] = 2
        skewed[n // 5: n // 4] = 3
        t_bal = self._run(medium_mesh,
                          balanced).category_totals()["implicit_sync"]
        t_skew = self._run(medium_mesh,
                           skewed).category_totals()["implicit_sync"]
        assert t_skew > 2 * t_bal

    def test_more_iterations_more_time(self, partitioned, medium_mesh):
        _, labels = partitioned
        t1 = self._run(medium_mesh, labels, its=[10] * 5).total_wall
        t2 = self._run(medium_mesh, labels, its=[30] * 5).total_wall
        assert t2 > t1

    def test_effective_bandwidth_below_wire(self, partitioned, medium_mesh):
        _, labels = partitioned
        tl = self._run(medium_mesh, labels)
        eff = tl.effective_scatter_bw_per_rank()
        assert 0 < eff < ASCI_RED_PPRO.net_beta


class TestEfficiency:
    def test_paper_table3_numbers(self):
        """Feeding Table 3's published (P, its, time) rows must return
        the paper's own efficiency columns."""
        rows = efficiency_decomposition([
            (128, 22, 2039.0), (256, 24, 1144.0), (512, 26, 638.0),
            (768, 27, 441.0), (1024, 29, 362.0)])
        eta = {r.nprocs: r for r in rows}
        assert eta[128].speedup == pytest.approx(1.0)
        assert eta[256].eta_overall == pytest.approx(0.89, abs=0.01)
        assert eta[512].eta_overall == pytest.approx(0.80, abs=0.01)
        assert eta[1024].eta_overall == pytest.approx(0.70, abs=0.01)
        assert eta[1024].eta_alg == pytest.approx(0.76, abs=0.01)
        assert eta[1024].eta_impl == pytest.approx(0.93, abs=0.015)

    def test_reference_row_is_unity(self):
        rows = efficiency_decomposition([(8, 10, 100.0), (16, 12, 60.0)])
        assert rows[0].eta_overall == 1.0
        assert rows[0].eta_alg == 1.0

    def test_empty(self):
        assert efficiency_decomposition([]) == []


class TestHybrid:
    def test_table5_shape(self, medium_mesh):
        """OpenMP threads beat 2-proc MPI at scale (halo redundancy)."""
        g = medium_mesh.vertex_graph()
        nodes = 8
        l1 = kway_partition(g, nodes, seed=0)
        l2 = kway_partition(g, 2 * nodes, seed=0)
        cmp = hybrid_flux_times(medium_mesh.edges, l1, l2, ASCI_RED_PPRO)
        # Both dual-processor modes beat single.
        assert cmp.t_hybrid_2 < cmp.t_mpi_1
        assert cmp.t_mpi_2 < cmp.t_mpi_1
        # The hybrid advantage comes from avoided halo work; with this
        # many subdomains on a small mesh the halo penalty is large.
        assert cmp.t_hybrid_2 < cmp.t_mpi_2 * 1.2

    def test_mismatched_parts_raise(self, medium_mesh):
        g = medium_mesh.vertex_graph()
        l1 = kway_partition(g, 4, seed=0)
        with pytest.raises(ValueError):
            hybrid_flux_times(medium_mesh.edges, l1, l1, ASCI_RED_PPRO)
