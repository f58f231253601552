"""Tests for the event-driven S-NIC runtime."""

import pytest

from repro.core import NFConfig, NICOS, SNIC
from repro.core.runtime import PacketTiming, RuntimeStats, SNICRuntime
from repro.core.vpp import VPPConfig
from repro.net.packet import Packet
from repro.net.rules import MatchRule, Prefix
from repro.nf import Monitor

MB = 1024 * 1024


def make_system():
    snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=95)
    nic_os = NICOS(snic)
    vnic = nic_os.NF_create(
        NFConfig(name="mon", core_ids=(0,), memory_bytes=4 * MB,
                 vpp=VPPConfig(rules=[MatchRule()]))
    )
    return snic, vnic


def timed_packets(n, spacing_ns=1_000):
    out = []
    for i in range(n):
        packet = Packet.make("10.0.0.1", "20.0.0.1", src_port=1000 + i, dst_port=80)
        packet.arrival_ns = (i + 1) * spacing_ns
        out.append(packet)
    return out


class TestRuntime:
    def test_all_packets_complete(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        mon = Monitor()
        runtime.attach(vnic.nf_id, mon)
        runtime.inject(timed_packets(20))
        stats = runtime.run()
        assert stats.completed == 20
        assert stats.dropped == 0
        assert mon.stats.received == 20
        assert len(snic.tx_port.transmitted) == 20

    def test_latencies_positive_and_ordered(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(10))
        stats = runtime.run()
        for timing in stats.timings:
            assert timing.latency_ns > 0
            assert timing.departure_ns > timing.arrival_ns

    def test_latency_includes_poll_and_service(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic, poll_interval_ns=5_000,
                              service_ns_per_packet=1_000)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(1))
        stats = runtime.run()
        # One packet: waits for a poll tick then one service quantum.
        assert stats.timings[0].latency_ns >= 1_000

    def test_percentiles(self):
        stats = RuntimeStats(
            timings=[PacketTiming(1, 0, latency) for latency in
                     (100, 200, 300, 400, 500)]
        )
        assert stats.latency_percentiles(0, 99) == [100, 500]
        assert stats.latency_percentiles() == []

    def test_throughput_positive(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(50, spacing_ns=500))
        stats = runtime.run()
        assert stats.throughput_mpps() > 0

    def test_unmatched_packets_counted_dropped(self):
        snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=96)
        nic_os = NICOS(snic)
        vnic = nic_os.NF_create(
            NFConfig(name="narrow", core_ids=(0,), memory_bytes=4 * MB,
                     vpp=VPPConfig(rules=[MatchRule(
                         dst_prefix=Prefix.parse("99.99.99.99/32"))]))
        )
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(5))
        stats = runtime.run()
        assert stats.dropped == 5
        assert stats.completed == 0

    @pytest.mark.parametrize("n", [27, 40, 64])
    def test_burst_inside_one_poll_interval_loses_nothing(self, n):
        # Every packet lands before the first poll, which schedules n
        # completions up to n * 600 ns out; drain must run them all.
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(n, spacing_ns=25))
        stats = runtime.run()
        assert stats.completed + stats.dropped == n
        assert len(snic.tx_port.transmitted) == stats.completed

    def test_drain_ends_exactly_at_last_completion(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(3))
        stats = runtime.run()
        assert runtime.sim.now_ns == max(t.departure_ns for t in stats.timings)
        assert runtime.sim.peek_next_ns() is None

    def test_drain_raises_when_event_guard_stops_it(self, monkeypatch):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(5))
        run = runtime.sim.run
        monkeypatch.setattr(runtime.sim, "run",
                            lambda **kw: run(max_events=3, **kw))
        with pytest.raises(RuntimeError, match="max_events"):
            runtime.run()

    def test_attach_requires_live_function(self):
        snic, _ = make_system()
        runtime = SNICRuntime(snic)
        with pytest.raises(ValueError):
            runtime.attach(999, Monitor())

    def test_duration_bound_run(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(5))
        stats = runtime.run(duration_ns=50_000)
        assert runtime.sim.now_ns <= 50_000 + 1
        assert stats.completed <= 5

    def test_two_functions_served_independently(self):
        snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=97)
        nic_os = NICOS(snic)
        a = nic_os.NF_create(
            NFConfig(name="a", core_ids=(0,), memory_bytes=4 * MB,
                     vpp=VPPConfig(rules=[MatchRule(
                         dst_prefix=Prefix.parse("20.0.0.0/8"))]))
        )
        b = nic_os.NF_create(
            NFConfig(name="b", core_ids=(1,), memory_bytes=4 * MB,
                     vpp=VPPConfig(rules=[MatchRule(
                         dst_prefix=Prefix.parse("30.0.0.0/8"))]))
        )
        runtime = SNICRuntime(snic)
        mon_a, mon_b = Monitor(), Monitor()
        runtime.attach(a.nf_id, mon_a)
        runtime.attach(b.nf_id, mon_b)
        packets = []
        for i in range(10):
            dst = "20.0.0.1" if i % 2 == 0 else "30.0.0.1"
            packet = Packet.make("10.0.0.1", dst, src_port=2000 + i, dst_port=80)
            packet.arrival_ns = (i + 1) * 1_000
            packets.append(packet)
        runtime.inject(packets)
        stats = runtime.run()
        assert stats.completed == 10
        assert mon_a.stats.received == 5
        assert mon_b.stats.received == 5
