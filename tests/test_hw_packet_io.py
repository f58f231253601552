"""Tests for ports, rings, and packet input/output modules."""

import pytest

from repro.core import NFConfig, SNIC
from repro.core.vpp import VPPConfig
from repro.hw.memory import AccessFault, PhysicalMemory
from repro.hw.packet_io import PacketRing, RXPort, TXPort
from repro.net.packet import Packet
from repro.net.rules import MatchRule, Prefix


def make_ring(memory, capacity=8):
    return PacketRing(
        memory,
        data_base=0x10000,
        data_size=64 * 1024,
        desc_base=0x30000,
        capacity=capacity,
    )


class TestPorts:
    def test_reserve_and_release(self):
        port = RXPort(capacity_bytes=1000)
        r = port.reserve(owner=1, size=400)
        assert r.offset == 0 and r.size == 400
        r2 = port.reserve(owner=2, size=400)
        assert r2.offset == 400
        port.release(1)
        assert 1 not in port.reservations

    def test_reserve_exhaustion(self):
        port = RXPort(capacity_bytes=100)
        port.reserve(owner=1, size=80)
        with pytest.raises(AccessFault):
            port.reserve(owner=2, size=40)

    def test_double_reserve_rejected(self):
        port = RXPort(capacity_bytes=1000)
        port.reserve(owner=1, size=100)
        with pytest.raises(AccessFault):
            port.reserve(owner=1, size=100)

    def test_free_bytes(self):
        port = TXPort(capacity_bytes=1000)
        port.reserve(owner=1, size=300)
        assert port.free_bytes() == 700

    def test_full_release_resets_offsets(self):
        port = RXPort(capacity_bytes=1000)
        port.reserve(owner=1, size=900)
        port.release(1)
        assert port.reserve(owner=2, size=900).offset == 0

    def test_rx_staging(self):
        port = RXPort()
        p = Packet.make("1.1.1.1", "2.2.2.2")
        port.wire_arrival(p)
        assert port.drain() == [p]
        assert port.drain() == []


class TestPacketRing:
    def test_push_pop_roundtrip(self):
        memory = PhysicalMemory(1024 * 1024, page_size=4096)
        ring = make_ring(memory)
        frame = Packet.make("1.1.1.1", "2.2.2.2", payload=b"abc").to_bytes()
        ring.push(frame)
        assert ring.pop() == frame

    def test_fifo_order(self):
        memory = PhysicalMemory(1024 * 1024, page_size=4096)
        ring = make_ring(memory)
        frames = [bytes([i]) * 60 for i in range(5)]
        for f in frames:
            ring.push(f)
        assert [ring.pop() for _ in range(5)] == frames

    def test_pop_empty_returns_none(self):
        memory = PhysicalMemory(1024 * 1024, page_size=4096)
        assert make_ring(memory).pop() is None

    def test_full_ring_rejects(self):
        memory = PhysicalMemory(1024 * 1024, page_size=4096)
        ring = make_ring(memory, capacity=2)
        ring.push(b"a" * 64)
        ring.push(b"b" * 64)
        with pytest.raises(AccessFault):
            ring.push(b"c" * 64)

    def test_oversized_frame_rejected(self):
        memory = PhysicalMemory(1024 * 1024, page_size=4096)
        ring = make_ring(memory)
        with pytest.raises(AccessFault):
            ring.push(b"x" * (64 * 1024 + 1))

    def test_descriptors_in_memory(self):
        """Ring state is ordinary DRAM — an attacker who can read it sees
        (address, length) pairs, which is the §3.3 attack surface."""
        memory = PhysicalMemory(1024 * 1024, page_size=4096)
        ring = make_ring(memory)
        addr = ring.push(b"z" * 100)
        descs = ring.peek_descriptors()
        assert descs == [(addr, 100)]
        # And the raw frame bytes sit at that physical address.
        assert memory.read(addr, 100) == b"z" * 100

    def test_data_wraps(self):
        memory = PhysicalMemory(1024 * 1024, page_size=4096)
        ring = make_ring(memory, capacity=100)
        for _ in range(5):
            ring.push(b"q" * 20000)
            assert ring.pop() == b"q" * 20000


MB = 1024 * 1024


def _snic_with(*prefixes):
    """An S-NIC with one NF per destination prefix, launched in order."""
    snic = SNIC(n_cores=len(prefixes), dram_bytes=64 * MB, key_seed=1234)
    nf_ids = tuple(
        snic.nf_launch(NFConfig(
            name=f"nf{index}", core_ids=(index,), memory_bytes=4 * MB,
            vpp=VPPConfig(rules=[MatchRule(dst_prefix=Prefix.parse(prefix))])))
        for index, prefix in enumerate(prefixes))
    return snic, nf_ids


class TestInputModule:
    """The device's packet input module: ``SNIC.classify`` and
    ``SNIC.process_ingress`` over every live VPP's switching rules."""

    def test_classify(self):
        snic, (one, two) = _snic_with("1.0.0.0/8", "2.0.0.0/8")
        assert snic.classify(Packet.make("9.9.9.9", "1.2.3.4")) == one
        assert snic.classify(Packet.make("9.9.9.9", "2.2.2.2")) == two
        assert snic.classify(Packet.make("9.9.9.9", "3.3.3.3")) is None

    def test_process_routes_to_rings(self):
        snic, (one, two) = _snic_with("1.0.0.0/8", "2.0.0.0/8")
        for dst in ("1.2.3.4", "2.2.2.2", "3.3.3.3"):
            snic.rx_port.wire_arrival(Packet.make("9.9.9.9", dst))
        # -1 counts the packet no rule matched: dropped.
        assert snic.process_ingress() == {one: 1, two: 1, -1: 1}
        assert [snic.record(nf_id).vpp.rx_ring.occupancy
                for nf_id in (one, two)] == [1, 1]

    def test_full_ring_drops_and_keeps_draining(self):
        snic = SNIC(n_cores=1, dram_bytes=64 * MB, key_seed=1234)
        nf_id = snic.nf_launch(NFConfig(
            name="nf0", core_ids=(0,), memory_bytes=4 * MB,
            vpp=VPPConfig(ring_capacity=2, rules=[
                MatchRule(dst_prefix=Prefix.parse("1.0.0.0/8"))])))
        packets = [Packet.make("9.9.9.9", "1.2.3.4", src_port=1000 + i)
                   for i in range(4)]
        for packet in packets:
            snic.rx_port.wire_arrival(packet)
        # The ring takes two; the other two are dropped, not left staged.
        assert snic.process_ingress() == {nf_id: 2, -1: 2}
        assert snic.rx_port.drain() == []
        ring = snic.record(nf_id).vpp.rx_ring
        assert [ring.pop() for _ in range(2)] \
            == [packet.to_bytes() for packet in packets[:2]]
        assert ring.pop() is None

    def test_remove_rules_for(self):
        snic, (one, _two) = _snic_with("1.0.0.0/8", "2.0.0.0/8")
        snic.nf_teardown(one)
        assert snic.classify(Packet.make("9.9.9.9", "1.2.3.4")) is None

    def test_first_match_wins(self):
        snic, (wide, narrow) = _snic_with("1.0.0.0/8", "1.2.3.4/32")
        packet = Packet.make("9.9.9.9", "1.2.3.4")
        assert snic.classify(packet) == wide
        snic.nf_teardown(wide)
        assert snic.classify(packet) == narrow


class TestOutputModule:
    """The device's packet output module: ``SNIC.process_egress``."""

    def test_drains_to_wire(self):
        snic, (nf_id,) = _snic_with("2.0.0.0/8")
        vpp = snic.record(nf_id).vpp
        vpp.transmit(Packet.make("2.2.2.2", "1.1.1.1"))
        vpp.transmit(Packet.make("2.2.2.2", "3.3.3.3"))
        assert snic.process_egress() == 2
        assert [owner for owner, _ in snic.tx_port.transmitted] \
            == [nf_id, nf_id]
        assert vpp.tx_ring.occupancy == 0
