"""The packet path does each hop's host work once.

``examples/nf_dense_scenario.json`` (six busy tenants, one per NF kind)
runs with counting wrappers around the packet path:

* every packet that reaches an NF is parsed exactly once
  (``Packet.from_bytes``), and nothing on the way out parses again;
* a ring push is two memory writes (the frame, its 16-byte descriptor)
  and a non-empty pop two reads (the descriptor, the frame); an empty
  pop touches no memory;
* the wire carries exactly the bytes of the packets the NFs returned.

The descriptor record is also checked against the two ``write_u64``
stores it replaces, byte for byte, and the packet buffer's wrap against
overwriting frames not yet popped.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.core import NFConfig, SNIC
from repro.core.vpp import VPPConfig, VirtualPacketPipeline
from repro.hw.memory import AccessFault, PhysicalMemory
from repro.hw.packet_io import PacketRing, RingFullError, TXPort
from repro.net.packet import Packet
from repro.net.rules import MatchRule, Prefix
from repro.nf.base import NetworkFunction
from repro.scenario.matrix import load_spec, run_specs

EXAMPLE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples", "nf_dense_scenario.json")

MB = 1024 * 1024


class _PathCounts:
    """Calls made on the packet path, with memory accesses per ring op."""

    def __init__(self) -> None:
        self.parses = 0
        self.nf_calls = 0
        self.nf_outputs: list = []
        self.transmits: list = []
        self.wire: list = []
        #: One Counter of memory accesses per push / pop, in call order.
        self.pushes: list = []
        self.pops: list = []  # (accesses, returned a frame)
        self._open: list = []

    def access(self, kind: str) -> None:
        if self._open:
            self._open[-1][kind] += 1

    def ring_op(self, log: list, call):
        accesses = Counter()
        self._open.append(accesses)
        try:
            result = call()
        finally:
            self._open.pop()
        log.append(accesses if log is self.pushes
                   else (accesses, result is not None))
        return result


@pytest.fixture
def counted(monkeypatch):
    counts = _PathCounts()
    write, read = PhysicalMemory.write, PhysicalMemory.read
    push, pop = PacketRing.push, PacketRing.pop
    from_bytes = Packet.__dict__["from_bytes"].__func__
    process = NetworkFunction.process
    transmit = VirtualPacketPipeline.transmit
    wire_transmit = TXPort.wire_transmit

    def counted_write(mem, addr, data):
        counts.access("write")
        return write(mem, addr, data)

    def counted_read(mem, addr, size):
        counts.access("read")
        return read(mem, addr, size)

    def counted_from_bytes(cls, data):
        counts.parses += 1
        return from_bytes(cls, data)

    def counted_process(nf, packet):
        counts.nf_calls += 1
        result = process(nf, packet)
        if result is not None:
            counts.nf_outputs.append(result.to_bytes())
        return result

    def counted_transmit(vpp, packet):
        counts.transmits.append((vpp.nf_id, packet.to_bytes()))
        return transmit(vpp, packet)

    def counted_wire_transmit(port, owner, frame):
        counts.wire.append((owner, frame))
        return wire_transmit(port, owner, frame)

    monkeypatch.setattr(PhysicalMemory, "write", counted_write)
    monkeypatch.setattr(PhysicalMemory, "read", counted_read)
    monkeypatch.setattr(
        PacketRing, "push",
        lambda ring, frame: counts.ring_op(counts.pushes,
                                           lambda: push(ring, frame)))
    monkeypatch.setattr(
        PacketRing, "pop",
        lambda ring: counts.ring_op(counts.pops, lambda: pop(ring)))
    monkeypatch.setattr(Packet, "from_bytes",
                        classmethod(counted_from_bytes))
    monkeypatch.setattr(NetworkFunction, "process", counted_process)
    monkeypatch.setattr(VirtualPacketPipeline, "transmit", counted_transmit)
    monkeypatch.setattr(TXPort, "wire_transmit", counted_wire_transmit)
    return counts


@pytest.fixture
def example_run(counted):
    report = run_specs([load_spec(EXAMPLE)])
    (cell,) = report["cells"].values()
    return counted, cell["record"]


class TestExampleScenarioWorkCounts:
    def test_one_parse_per_packet_that_reaches_an_nf(self, example_run):
        counts, record = example_run
        assert record["status"] == "ok"
        assert record["outputs"]["packets_dropped"] == 0
        assert counts.nf_calls == 6000
        assert counts.parses == counts.nf_calls

    def test_a_push_is_one_frame_write_and_one_descriptor_write(
            self, example_run):
        counts, record = example_run
        # Every packet into an RX ring, every NF output into a TX ring.
        completed = record["outputs"]["packets_completed"]
        assert len(counts.pushes) == 6000 + completed
        assert all(c == Counter(write=2) for c in counts.pushes)

    def test_a_pop_is_one_descriptor_read_and_one_frame_read(
            self, example_run):
        counts, record = example_run
        full = [c for c, got_frame in counts.pops if got_frame]
        empty = [c for c, got_frame in counts.pops if not got_frame]
        assert len(full) == len(counts.pushes)
        assert all(c == Counter(read=2) for c in full)
        # drain_tx stops on the first empty pop, which reads nothing.
        assert empty and all(not c for c in empty)

    def test_the_wire_carries_the_nf_output_bytes(self, example_run):
        counts, record = example_run
        assert len(counts.wire) == record["outputs"]["packets_completed"]
        assert all(type(frame) is bytes for _, frame in counts.wire)
        assert counts.wire == counts.transmits
        assert Counter(frame for _, frame in counts.wire) \
            == Counter(counts.nf_outputs)


def _ring(memory: PhysicalMemory, data_size: int = 64 * 1024,
          capacity: int = 8) -> PacketRing:
    return PacketRing(memory, data_base=0x10000, data_size=data_size,
                      desc_base=0x30000, capacity=capacity)


class TestDescriptorRecord:
    def test_record_equals_the_two_u64_stores(self):
        frames = [bytes([i]) * (40 + 7 * i) for i in range(5)]
        memory = PhysicalMemory(1 * MB, page_size=4096)
        reference = PhysicalMemory(1 * MB, page_size=4096)
        ring = _ring(memory)
        for i, frame in enumerate(frames):
            addr = ring.push(frame)
            desc = 0x30000 + i * PacketRing.DESCRIPTOR_BYTES
            reference.write_u64(desc, addr)
            reference.write_u64(desc + 8, len(frame))
        span = len(frames) * PacketRing.DESCRIPTOR_BYTES
        assert memory.read(0x30000, span) == reference.read(0x30000, span)
        assert ring.peek_descriptors() == [
            (reference.read_u64(0x30000 + 16 * i),
             reference.read_u64(0x30000 + 16 * i + 8))
            for i in range(len(frames))]
        assert [ring.pop() for _ in frames] == frames

    def test_descriptor_slots_wrap_with_the_ring(self):
        memory = PhysicalMemory(1 * MB, page_size=4096)
        ring = _ring(memory, capacity=3)
        for round_ in range(4):
            frames = [bytes([round_, i]) * 30 for i in range(3)]
            for frame in frames:
                ring.push(frame)
            assert [length for _, length in ring.peek_descriptors()] \
                == [60, 60, 60]
            assert [ring.pop() for _ in frames] == frames
        assert ring.pop() is None


class TestPacketBufferWrap:
    def test_wrap_never_overwrites_a_queued_frame(self):
        memory = PhysicalMemory(1 * MB, page_size=4096)
        ring = _ring(memory, data_size=1024, capacity=8)
        frames = [bytes([n]) * 300 for n in (1, 2, 3, 4)]
        for frame in frames[:3]:
            ring.push(frame)
        with pytest.raises(AccessFault, match="packet ring full"):
            ring.push(frames[3])
        assert ring.occupancy == 3
        assert ring.pop() == frames[0]
        # The first frame's bytes are free again: the fourth wraps there.
        assert ring.push(frames[3]) == ring.data_base
        assert [ring.pop() for _ in range(3)] == frames[1:]
        assert ring.pop() is None

    def test_a_full_descriptor_ring_raises_the_same_error(self):
        memory = PhysicalMemory(1 * MB, page_size=4096)
        ring = _ring(memory, capacity=2)
        ring.push(b"a" * 10)
        ring.push(b"b" * 10)
        with pytest.raises(RingFullError, match="packet ring full"):
            ring.push(b"c" * 10)

    def test_fifo_order_holds_through_many_wraps(self):
        memory = PhysicalMemory(1 * MB, page_size=4096)
        ring = _ring(memory, data_size=1000, capacity=16)
        queued: list = []
        sizes = [97, 301, 13, 450, 222, 5, 380, 64, 499, 150]
        for step in range(200):
            frame = bytes([step % 251]) * sizes[step % len(sizes)]
            try:
                ring.push(frame)
                queued.append(frame)
            except RingFullError:
                assert queued
            if step % 3 == 2:
                while queued:
                    assert ring.pop() == queued.pop(0)
                    if len(queued) % 2:
                        break
        while queued:
            assert ring.pop() == queued.pop(0)
        assert ring.pop() is None


class TestIngressDropsWhenThePacketBufferIsFull:
    def test_process_ingress_counts_a_drop(self):
        snic = SNIC(n_cores=2, dram_bytes=64 * MB, key_seed=1234)
        nf_id = snic.nf_launch(NFConfig(
            name="sink", core_ids=(0,), memory_bytes=4 * MB,
            vpp=VPPConfig(rules=[
                MatchRule(dst_prefix=Prefix.parse("9.9.9.9/32"))])))
        ring = snic.record(nf_id).vpp.rx_ring
        packets = [Packet.make("10.0.0.1", "9.9.9.9", src_port=1000 + i,
                               dst_port=80, payload=bytes([i % 256]) * 1400)
                   for i in range(300)]
        frame_bytes = len(packets[0].to_bytes())
        fits = ring.data_size // frame_bytes
        assert fits < len(packets) <= ring.capacity
        for packet in packets:
            snic.rx_port.wire_arrival(packet)
        delivered = snic.process_ingress()
        assert delivered == {nf_id: fits, -1: len(packets) - fits}
        assert ring.occupancy == fits
        for packet in packets[:fits]:
            assert ring.pop() == packet.to_bytes()
        assert ring.pop() is None
