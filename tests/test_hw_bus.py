"""Tests for IO-bus arbitration: FCFS vs temporal partitioning."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.bus import (
    BusCrashed,
    FCFSArbiter,
    IOBus,
    TemporalPartitioningArbiter,
)


class TestFCFS:
    def test_uncontended_latency_is_transfer_time(self):
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=10.0)
        assert arbiter.request(1, 100, now_ns=0.0) == pytest.approx(10.0)

    def test_backlog_queues(self):
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=10.0)
        arbiter.request(1, 1000, now_ns=0.0)  # busy until 100
        completion = arbiter.request(2, 100, now_ns=0.0)
        assert completion == pytest.approx(110.0)

    def test_co_tenant_visible_latency(self):
        """The commodity side channel: client 2's latency depends on
        whether client 1 was active."""
        quiet = FCFSArbiter(bandwidth_bytes_per_ns=10.0)
        latency_quiet = quiet.request(2, 100, 0.0) - 0.0
        noisy = FCFSArbiter(bandwidth_bytes_per_ns=10.0)
        noisy.request(1, 10_000, 0.0)
        latency_noisy = noisy.request(2, 100, 0.0) - 0.0
        assert latency_noisy > latency_quiet

    def test_watchdog_crash(self):
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=1.0, watchdog_timeout_ns=100.0)
        arbiter.request(1, 1000, 0.0)
        with pytest.raises(BusCrashed):
            arbiter.request(2, 1, 0.0)

    def test_per_request_overhead(self):
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=10.0, per_request_overhead_ns=5.0)
        assert arbiter.request(1, 100, 0.0) == pytest.approx(15.0)

    def test_reset(self):
        arbiter = FCFSArbiter()
        arbiter.request(1, 10_000, 0.0)
        arbiter.reset()
        assert arbiter.backlog_ns == 0.0

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            FCFSArbiter(bandwidth_bytes_per_ns=0)


class TestTemporalPartitioning:
    def _arbiter(self, domains=(0, 1), epoch=1000.0, dead=100.0):
        return TemporalPartitioningArbiter(
            domains=list(domains),
            bandwidth_bytes_per_ns=10.0,
            epoch_ns=epoch,
            dead_time_ns=dead,
        )

    def test_first_domain_serves_immediately(self):
        arbiter = self._arbiter()
        assert arbiter.request(0, 100, 0.0) == pytest.approx(10.0)

    def test_second_domain_waits_for_its_epoch(self):
        arbiter = self._arbiter()
        completion = arbiter.request(1, 100, 0.0)
        assert completion == pytest.approx(1010.0)  # epoch 1 starts at 1000

    def test_dead_time_excluded(self):
        arbiter = self._arbiter()
        # Domain 0's live window in epoch 0 is [0, 900): a request needing
        # more than 900ns of live time spills into its next epoch at 2000.
        completion = arbiter.request(0, 10_000, 0.0)  # needs 1000ns live
        assert completion == pytest.approx(2000.0 + 100.0 / 10.0 * 10)

    def test_non_interference_exact(self):
        """The defining property (§4.5): a domain's completion times are
        identical whether or not co-tenants generate traffic."""
        quiet = self._arbiter()
        quiet_times = [quiet.request(0, 500, t) for t in (0.0, 50.0, 5000.0)]
        noisy = self._arbiter()
        noisy.request(1, 1_000_000, 0.0)  # massive co-tenant burst
        noisy_times = [noisy.request(0, 500, t) for t in (0.0, 50.0, 5000.0)]
        assert quiet_times == noisy_times

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=50_000), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=1_000_000),
    )
    def test_non_interference_property(self, attacker_sizes, victim_size):
        quiet = self._arbiter(domains=(0, 1, 2))
        expected = quiet.request(2, victim_size, 0.0)
        noisy = self._arbiter(domains=(0, 1, 2))
        for size in attacker_sizes:
            noisy.request(0, size, 0.0)
            noisy.request(1, size, 0.0)
        assert noisy.request(2, victim_size, 0.0) == expected

    def test_own_queue_still_serializes(self):
        arbiter = self._arbiter()
        first = arbiter.request(0, 1000, 0.0)
        second = arbiter.request(0, 1000, 0.0)
        assert second > first

    def test_effective_bandwidth(self):
        arbiter = self._arbiter(domains=(0, 1, 2, 3))
        assert arbiter.effective_bandwidth() == pytest.approx(10.0 * 0.9 / 4)

    def test_unknown_domain_rejected(self):
        with pytest.raises(KeyError):
            self._arbiter().request(99, 10, 0.0)

    def test_duplicate_domains_rejected(self):
        with pytest.raises(ValueError):
            TemporalPartitioningArbiter(domains=[1, 1])

    def test_dead_time_must_fit_epoch(self):
        with pytest.raises(ValueError):
            TemporalPartitioningArbiter(domains=[0], epoch_ns=10, dead_time_ns=10)

    def test_reset(self):
        arbiter = self._arbiter()
        arbiter.request(0, 100_000, 0.0)
        arbiter.reset()
        assert arbiter.request(0, 100, 0.0) == pytest.approx(10.0)


class TestIOBus:
    def test_an_empty_registry_passed_in_is_used(self):
        from repro.obs.metrics import MetricsRegistry, get_registry

        registry, cell = MetricsRegistry(), len(get_registry())
        bus = IOBus(FCFSArbiter(bandwidth_bytes_per_ns=12.8),
                    registry=registry)
        bus.transfer(1, 64, now_ns=0.0)
        assert len(registry) == 3
        assert len(get_registry()) == cell

    def test_latency_and_accounting(self):
        bus = IOBus(FCFSArbiter(bandwidth_bytes_per_ns=10.0))
        latency = bus.transfer(1, 100, now_ns=0.0)
        assert latency == pytest.approx(10.0)
        assert bus.bytes_by_client[1] == 100

    def test_recording(self):
        bus = IOBus(FCFSArbiter(bandwidth_bytes_per_ns=10.0))
        bus.record = True
        bus.transfer(1, 50, now_ns=5.0)
        assert len(bus.requests) == 1
        assert bus.requests[0].latency_ns == pytest.approx(5.0)
