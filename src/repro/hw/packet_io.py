"""Packet ingress/egress circuitry: ports, input/output modules, rings.

Section 3.1 (BlueField-style flow): incoming packets land in an RX
buffer; the *packet input module* consults management-configured
switching rules to pick the destination function and copies the packet
into that function's DRAM region; the function processes it and notifies
the *packet output module*, which copies the packet from DRAM to the TX
buffer and then onto the wire.

Section 4.4 carves these resources into virtual packet pipelines: the RX
and TX ports support per-VPP buffer reservations, and per-core packet
schedulers have locked TLBs restricting their DMA targets; the S-NIC
layer (:mod:`repro.core.vpp`) builds on the primitives here.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.hw.memory import AccessFault, PhysicalMemory
from repro.hw.mmu import TLB
from repro.net.packet import Packet
from repro.net.rules import SwitchingRule


@dataclass
class BufferReservation:
    """A carve-out of port buffer space owned by one NF."""

    owner: int
    offset: int
    size: int


class _Port:
    """Shared machinery for RX/TX ports: a buffer with reservations.

    Reservations are placed first-fit into the gaps left by released
    owners, so port space survives function churn (§4.8's usage model).
    """

    def __init__(self, capacity_bytes: int, name: str) -> None:
        if capacity_bytes <= 0:
            raise ValueError("port capacity must be positive")
        self.capacity = capacity_bytes
        self.name = name
        self.reservations: Dict[int, BufferReservation] = {}

    def _find_gap(self, size: int) -> int:
        """First-fit offset for ``size`` bytes among current holes."""
        taken = sorted(
            (r.offset, r.offset + r.size) for r in self.reservations.values()
        )
        cursor = 0
        for start, end in taken:
            if start - cursor >= size:
                return cursor
            cursor = max(cursor, end)
        if self.capacity - cursor >= size:
            return cursor
        raise AccessFault(
            f"{self.name}: cannot reserve {size} bytes "
            f"({self.free_bytes()} free, fragmented)"
        )

    def reserve(self, owner: int, size: int) -> BufferReservation:
        """Reserve ``size`` bytes for ``owner``; fails when exhausted."""
        if owner in self.reservations:
            raise AccessFault(f"{self.name}: NF {owner} already has a reservation")
        offset = self._find_gap(size)
        reservation = BufferReservation(owner=owner, offset=offset, size=size)
        self.reservations[owner] = reservation
        return reservation

    def release(self, owner: int) -> None:
        self.reservations.pop(owner, None)

    def free_bytes(self) -> int:
        return self.capacity - sum(r.size for r in self.reservations.values())


class RXPort(_Port):
    """The physical receive port: wire-side packet staging."""

    def __init__(self, capacity_bytes: int = 4 * 1024 * 1024) -> None:
        super().__init__(capacity_bytes, name="rx-port")
        self._staged: List[Packet] = []

    def wire_arrival(self, packet: Packet) -> None:
        """A packet arrives from the wire into the RX buffer."""
        self._staged.append(packet)

    def drain(self) -> List[Packet]:
        staged, self._staged = self._staged, []
        return staged


class TXPort(_Port):
    """The physical transmit port: frames headed for the wire.

    The output module hands over the wire-format bytes it copied out of
    the function's TX ring.  ``transmitted`` keeps ``(owner, frame)``
    in wire order; a reader that needs headers parses a frame itself
    with :meth:`Packet.from_bytes`.
    """

    def __init__(self, capacity_bytes: int = 4 * 1024 * 1024) -> None:
        super().__init__(capacity_bytes, name="tx-port")
        self.transmitted: List[Tuple[int, bytes]] = []

    def wire_transmit(self, owner: int, frame: bytes) -> None:
        self.transmitted.append((owner, frame))


class RingFullError(AccessFault):
    """A push found no free descriptor slot or no room for the frame."""


#: A descriptor record: u64 address then u64 length, little-endian --
#: byte for byte what two ``write_u64`` stores would leave in DRAM.
_DESCRIPTOR_FORMAT = "<QQ"


class PacketRing:
    """A descriptor ring in a function's DRAM region.

    Mirrors the LiquidIO layout profiled in §5.2: a packet buffer (PB)
    holding frame bytes plus a descriptor buffer (PDB) of (address,
    length) records.  The ring reads/writes *through physical memory*, so
    anything that can reach those addresses can corrupt queued packets —
    which is exactly the §3.3 packet-corruption attack.

    A push is two memory writes (the frame, then its 16-byte descriptor
    record) and a non-empty pop two reads (the record, then the frame).
    Frames are laid out back to back in the packet buffer and wrap to
    its start when the next one does not fit before the end.  The ring
    keeps its own account of the buffer bytes each queued frame holds
    (the frame plus any wrap gap after it), so a push that would
    overwrite a frame not yet popped fails like a full descriptor ring.
    """

    DESCRIPTOR_BYTES = 16  # u64 address + u64 length

    def __init__(
        self,
        memory: PhysicalMemory,
        data_base: int,
        data_size: int,
        desc_base: int,
        capacity: int,
    ) -> None:
        self.memory = memory
        self.data_base = data_base
        self.data_size = data_size
        self.desc_base = desc_base
        self.capacity = capacity
        self.head = 0  # next slot the producer writes
        self.tail = 0  # next slot the consumer reads
        self._data_cursor = 0
        #: Packet-buffer bytes held by each queued frame, oldest first:
        #: its length plus the wrap gap left after it, if any.
        self._held: Deque[int] = deque()
        #: ``sum(self._held)``: the buffer bytes from the oldest queued
        #: frame's start up to ``_data_cursor``.
        self._held_bytes = 0

    @property
    def occupancy(self) -> int:
        return self.head - self.tail

    def push(self, frame: bytes) -> int:
        """Producer side: stage ``frame`` and publish a descriptor.

        Returns the physical address the frame was written to.  Raises
        :class:`RingFullError` when every descriptor slot is taken or
        the frame would overwrite one not yet popped.
        """
        if self.occupancy >= self.capacity:
            raise RingFullError("packet ring full")
        size = len(frame)
        if size > self.data_size:
            raise AccessFault("frame larger than the ring's data region")
        offset = self._data_cursor
        gap = 0
        if offset + size > self.data_size:
            gap, offset = self.data_size - offset, 0
        held = self._held
        if held and self._held_bytes + gap + size > self.data_size:
            raise RingFullError("packet ring full")
        addr = self.data_base + offset
        desc_addr = (self.desc_base
                     + (self.head % self.capacity) * self.DESCRIPTOR_BYTES)
        # The ring is trusted packet-IO hardware (§4.4): its data/desc
        # bases were carved out of the owning NF's extent at nf_launch,
        # and the bounds checks above keep every address inside them.
        self.memory.write(addr, frame)  # snic: ignore[SNIC001]
        self.memory.write(  # snic: ignore[SNIC001]
            desc_addr, struct.pack(_DESCRIPTOR_FORMAT, addr, size))
        if held:
            held[-1] += gap
            self._held_bytes += gap + size
        else:
            self._held_bytes = size
        held.append(size)
        self.head += 1
        self._data_cursor = offset + size
        return addr

    def pop(self) -> Optional[bytes]:
        """Consumer side: read the next descriptor and its frame bytes."""
        if self.head == self.tail:
            return None
        desc_addr = (self.desc_base
                     + (self.tail % self.capacity) * self.DESCRIPTOR_BYTES)
        # Trusted packet-IO hardware reading its own descriptor region
        # inside the owning NF's extent (see push()).
        # snic: ignore[SNIC001]
        record = self.memory.read(desc_addr, self.DESCRIPTOR_BYTES)
        addr, length = struct.unpack(_DESCRIPTOR_FORMAT, record)
        self.tail += 1
        self._held_bytes -= self._held.popleft()
        return self.memory.read(addr, length)  # snic: ignore[SNIC001]

    def peek_descriptors(self) -> List[Tuple[int, int]]:
        """All live (address, length) descriptor pairs — what an attacker
        scanning allocator metadata recovers."""
        out = []
        for seq in range(self.tail, self.head):
            slot = seq % self.capacity
            desc_addr = self.desc_base + slot * self.DESCRIPTOR_BYTES
            # snic: ignore[SNIC001] -- deliberately models the §3.3
            # attacker's raw descriptor scan; mediation absent by design.
            record = self.memory.read(desc_addr, self.DESCRIPTOR_BYTES)
            out.append(struct.unpack(_DESCRIPTOR_FORMAT, record))
        return out


class PacketInputModule:
    """Copies arriving packets into per-function rings via switching rules."""

    def __init__(self, rx_port: RXPort) -> None:
        self.rx_port = rx_port
        self.rules: List[SwitchingRule] = []
        self.rings: Dict[int, PacketRing] = {}
        self.dropped = 0
        self.delivered: Dict[int, int] = {}

    def configure_rules(self, rules: List[SwitchingRule]) -> None:
        self.rules = list(rules)

    def add_rules(self, rules: List[SwitchingRule]) -> None:
        self.rules.extend(rules)

    def remove_rules_for(self, nf_id: int) -> None:
        self.rules = [r for r in self.rules if r.nf_id != nf_id]

    def attach_ring(self, nf_id: int, ring: PacketRing) -> None:
        self.rings[nf_id] = ring

    def detach_ring(self, nf_id: int) -> None:
        self.rings.pop(nf_id, None)

    def classify(self, packet: Packet) -> Optional[int]:
        """First-match over switching rules; None means drop."""
        for rule in self.rules:
            if rule.matches_packet(packet):
                return rule.nf_id
        return None

    def process(self) -> int:
        """Move staged RX packets into their owners' rings."""
        moved = 0
        for packet in self.rx_port.drain():
            nf_id = self.classify(packet)
            ring = self.rings.get(nf_id) if nf_id is not None else None
            if ring is None:
                self.dropped += 1
                continue
            ring.push(packet.to_bytes())
            self.delivered[nf_id] = self.delivered.get(nf_id, 0) + 1
            moved += 1
        return moved


class PacketOutputModule:
    """Drains per-function TX rings onto the wire."""

    def __init__(self, tx_port: TXPort) -> None:
        self.tx_port = tx_port
        self.rings: Dict[int, PacketRing] = {}

    def attach_ring(self, nf_id: int, ring: PacketRing) -> None:
        self.rings[nf_id] = ring

    def detach_ring(self, nf_id: int) -> None:
        self.rings.pop(nf_id, None)

    def process(self) -> int:
        """Transmit everything queued in every attached ring."""
        sent = 0
        for nf_id, ring in self.rings.items():
            while True:
                frame = ring.pop()
                if frame is None:
                    break
                self.tx_port.wire_transmit(nf_id, frame)
                sent += 1
        return sent
