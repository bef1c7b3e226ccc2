"""Performance models: machines, miss bounds, SpMV bounds."""

import pytest

from repro.memory import CacheConfig
from repro.memory.hierarchy import HierarchyCounters
from repro.perfmodel import (ASCI_RED_PPRO, CRAY_T3E_600,
                             MACHINES, ORIGIN2000_R10K, conflict_miss_bound,
                             kernel_time_from_counters, predict_kernel_time,
                             spmv_bandwidth_mflops, spmv_traffic_bytes,
                             spmv_transfer_estimate,
                             stream_time, tlb_miss_bound)
from repro.perfmodel.stream import measure_stream_triad


class TestMachines:
    def test_registry(self):
        assert len(MACHINES) == 4
        assert ORIGIN2000_R10K.name in MACHINES

    def test_peak_rates(self):
        assert ORIGIN2000_R10K.peak_flops == 500e6
        assert ASCI_RED_PPRO.peak_flops == 333e6
        assert CRAY_T3E_600.peak_flops == 1200e6

    def test_all_bandwidth_bound_for_spmv(self):
        """The paper-era fact: every machine's ridge point (peak flops
        per STREAM byte) is far above SpMV's ~0.15 flops/byte."""
        for m in MACHINES.values():
            assert m.peak_flops / m.stream_bw > 1.0

    def test_r10000_geometry_matches_paper(self):
        """Table 1 caption: 32 KB L1 data, 4 MB L2."""
        assert ORIGIN2000_R10K.l1.capacity_bytes == 32 * 1024
        assert ORIGIN2000_R10K.l2.capacity_bytes == 4 * 1024 * 1024

    def test_scaled_caches(self):
        s = ORIGIN2000_R10K.scaled_caches(16)
        assert s.l2.capacity_bytes <= ORIGIN2000_R10K.l2.capacity_bytes // 8
        # TLB scales page size, keeping the entry count (concurrency).
        assert s.tlb.entries == ORIGIN2000_R10K.tlb.entries
        assert s.tlb.page_bytes <= ORIGIN2000_R10K.tlb.page_bytes // 8
        assert s.l1.line_bytes == ORIGIN2000_R10K.l1.line_bytes


class TestMissBounds:
    def test_zero_when_fits(self):
        c = CacheConfig("c", 32 * 1024, 32, 2)   # 4096 words
        assert conflict_miss_bound(1000, 2000, c) == 0.0

    def test_grows_with_bandwidth(self):
        c = CacheConfig("c", 8 * 1024, 32, 2)    # 1024 words
        b1 = conflict_miss_bound(1000, 2048, c)
        b2 = conflict_miss_bound(1000, 8192, c)
        assert 0 < b1 < b2

    def test_eq1_vs_eq2_contrast(self):
        """The paper's point: noninterlaced (beta ~ N) blows the bound,
        interlaced+RCM (beta << N) zeroes it."""
        n = 100_000
        c = CacheConfig("c", 512 * 1024, 128, 2)     # 64K words
        eq1 = conflict_miss_bound(n, n, c)           # noninterlaced
        eq2 = conflict_miss_bound(n, 4 * int(n**(2 / 3)), c)  # RCM surface
        assert eq1 > 0
        assert eq2 == 0

    def test_tlb_bound(self):
        from repro.memory.tlb import TLBConfig
        t = TLBConfig("t", 64, 16384)   # reach 1 MiB = 131072 words
        assert tlb_miss_bound(1000, 100_000, t) == 0
        assert tlb_miss_bound(1000, 200_000, t) > 0

    def test_linear_in_rows(self):
        c = CacheConfig("c", 8 * 1024, 32, 2)
        assert (conflict_miss_bound(2000, 4096, c)
                == 2 * conflict_miss_bound(1000, 4096, c))


class TestSpMVModel:
    def test_traffic_components(self):
        t = spmv_traffic_bytes(1000, 15000)
        assert t.matrix_bytes == 15000 * 8
        assert t.index_bytes == 15000 * 4 + 1001 * 4
        assert t.vector_bytes == 3 * 1000 * 8      # x once, y read+write
        assert t.total == t.matrix_bytes + t.index_bytes + t.vector_bytes
        # No reuse: every x gather goes to memory, so never less traffic.
        worst = spmv_traffic_bytes(1000, 15000, x_cached=False)
        assert worst.vector_bytes == (15000 + 2 * 1000) * 8
        assert t.total <= worst.total
        # BSR: one column index per block, one row pointer per block row.
        tb = spmv_traffic_bytes(1000, 16000, block_size=4)
        assert tb.matrix_bytes == 16000 * 8
        assert tb.index_bytes == (1000 + 250 + 1) * 4
        # Deep in the bandwidth-bound regime even with perfect reuse:
        # under 0.25 flops per byte.
        assert spmv_transfer_estimate(1000, 15000) > 4.0

    def test_blocking_reduces_traffic(self):
        t1 = spmv_traffic_bytes(1000, 16000, block_size=1)
        t4 = spmv_traffic_bytes(1000, 16000, block_size=4)
        assert t4.index_bytes < t1.index_bytes / 8
        assert t4.total < t1.total
        # The index-savings invariant at every block size: same values,
        # strictly less traffic than scalar storage once bs > 1.
        for bs in (1, 2, 3, 4, 5):
            n, nnz = 60 * bs, 900 * bs * bs
            scalar = spmv_traffic_bytes(n, nnz)
            blocked = spmv_traffic_bytes(n, nnz, block_size=bs)
            assert blocked.matrix_bytes == scalar.matrix_bytes
            if bs == 1:
                assert blocked.total == scalar.total
            else:
                assert blocked.total < scalar.total

    def test_blocking_raises_mflops(self):
        m1 = spmv_bandwidth_mflops(90708, 90708 * 60, ORIGIN2000_R10K)
        m4 = spmv_bandwidth_mflops(90708, 90708 * 60, ORIGIN2000_R10K,
                                   block_size=4)
        assert m4 > m1 * 1.2

    def test_fp32_nearly_doubles_mflops(self):
        """Table 2's mechanism in the model."""
        m8 = spmv_bandwidth_mflops(10000, 150000, ORIGIN2000_R10K,
                                   block_size=4, value_bytes=8)
        m4 = spmv_bandwidth_mflops(10000, 150000, ORIGIN2000_R10K,
                                   block_size=4, value_bytes=4)
        assert 1.6 < m4 / m8 < 2.0

    def test_far_below_peak(self):
        """SpMV attains ~10% of peak on period machines — the memory
        wall the paper is about."""
        for m in MACHINES.values():
            mflops = spmv_bandwidth_mflops(90708, 90708 * 60, m)
            assert mflops < 0.25 * m.peak_flops / 1e6


class TestTimeModel:
    def test_prediction_decomposition(self):
        c = HierarchyCounters(accesses=10_000, l1_misses=1000,
                              l2_misses=100, tlb_misses=10)
        p = kernel_time_from_counters(c, flops=20_000, machine=ORIGIN2000_R10K)
        assert p.total > 0
        assert p.total >= max(p.flop_time, p.bandwidth_time)
        assert p.bound in ("memory-bandwidth", "instruction-issue")

    def test_more_misses_cost_more(self):
        base = HierarchyCounters(10_000, 1000, 100, 10)
        worse = HierarchyCounters(10_000, 1000, 100, 10_000)
        t0 = kernel_time_from_counters(base, 1e4, ORIGIN2000_R10K).total
        t1 = kernel_time_from_counters(worse, 1e4, ORIGIN2000_R10K).total
        assert t1 > t0

    def test_predict_kernel_time_max(self):
        # Compute bound.
        assert predict_kernel_time(1e9, 8, ORIGIN2000_R10K) == \
            pytest.approx(2.0)
        # Bandwidth bound.
        assert predict_kernel_time(8, 300e6, ORIGIN2000_R10K) == \
            pytest.approx(1.0)

    def test_stream_time(self):
        assert stream_time(300e6, 300e6) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            stream_time(1.0, 0.0)


class TestStreamMeasurement:
    def test_host_bandwidth_sane(self):
        res = measure_stream_triad(n=200_000, repeats=2)
        # Any machine this runs on moves > 100 MB/s and < 10 TB/s.
        assert 1e8 < res.triad < 1e13
        assert set(res) == {"copy", "scale", "add", "triad"}
