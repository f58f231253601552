"""Virtual packet pipelines (§4.4).

A VPP bundles the hardware that moves one function's packets between the
wire and the function's private RAM:

* reserved buffer space in the physical RX and TX ports;
* a packet-scheduler unit per programmable core, whose TLB is locked to
  the owning function's memory so it can only DMA there;
* switching rules (5-tuple + optional VXLAN VNI) selecting the packets
  forwarded to this VPP.

The descriptor rings live *inside the function's own memory extent*, so
single-owner RAM semantics automatically protect queued packets — the
property the LiquidIO packet-corruption attack violates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.hw.memory import AccessFault, PhysicalMemory
from repro.hw.mmu import TLB
from repro.hw.packet_io import BufferReservation, PacketRing, RXPort, TXPort
from repro.net.packet import Packet
from repro.net.rules import MatchRule, SwitchingRule


class SchedulerAlgorithm(enum.Enum):
    """Packet-scheduling disciplines a VPP may request (§4.4 cites
    programmable schedulers; the model offers the classic three)."""

    FIFO = "fifo"
    ROUND_ROBIN = "rr"
    DEFICIT_ROUND_ROBIN = "drr"


@dataclass(frozen=True)
class VPPConfig:
    """The ``pkt_pipeline_config`` argument to ``nf_launch`` (Table 1)."""

    rx_buffer_bytes: int = 2 * 1024 * 1024
    tx_buffer_bytes: int = 2 * 1024 * 1024
    scheduler: SchedulerAlgorithm = SchedulerAlgorithm.FIFO
    rules: Sequence[MatchRule] = ()
    ring_capacity: int = 1024

    def rules_blob(self) -> bytes:
        """A canonical serialization of the switching rules.

        Written into (denylisted) RAM and folded into the launch hash so
        attestation covers which packets the function receives (§4.6).
        """
        parts = []
        for rule in self.rules:
            parts.append(repr(rule).encode())
        return b"\x00".join(parts)


class PacketSchedulerUnit:
    """One per-core scheduler with locked DMA-window entries.

    The paper "locks the scheduler's TLB entries to ensure that the
    scheduler can only perform DMA operations on memory regions that are
    owned by the associated network function" and sizes the TLB at three
    entries (packet buffer, packet descriptor buffer, output descriptor
    buffer — §5.2).  We model each locked entry as a physical window;
    every scheduler DMA is validated against them.
    """

    CAPACITY = 3  # PB + PDB + ODB, per the Table 4 sizing

    def __init__(self, owner: int, algorithm: SchedulerAlgorithm) -> None:
        self.owner = owner
        self.algorithm = algorithm
        self._windows: List[Tuple[int, int]] = []  # (base, size)
        self._locked = False

    @property
    def n_entries(self) -> int:
        return len(self._windows)

    @property
    def locked(self) -> bool:
        return self._locked

    def install_window(self, base: int, size: int) -> None:
        if self._locked:
            raise AccessFault(
                f"scheduler for NF {self.owner}: entries are locked"
            )
        if len(self._windows) >= self.CAPACITY:
            raise AccessFault(
                f"scheduler for NF {self.owner}: only {self.CAPACITY} "
                "entries available"
            )
        self._windows.append((base, size))

    def lock(self) -> None:
        self._locked = True

    def clear(self) -> None:
        self._windows.clear()
        self._locked = False

    def check_dma(self, paddr: int, size: int) -> None:
        """Validate a physical target against the locked entries."""
        for base, window_size in self._windows:
            if base <= paddr and paddr + size <= base + window_size:
                return
        raise AccessFault(
            f"scheduler for NF {self.owner}: DMA to {paddr:#x} outside the "
            "function's memory"
        )


class VirtualPacketPipeline:
    """The assembled VPP for one launched function."""

    def __init__(
        self,
        nf_id: int,
        config: VPPConfig,
        memory: PhysicalMemory,
        rx_port: RXPort,
        tx_port: TXPort,
        rx_ring_data_base: int,
        rx_ring_desc_base: int,
        tx_ring_data_base: int,
        tx_ring_desc_base: int,
        ring_data_bytes: int,
    ) -> None:
        self.nf_id = nf_id
        self.config = config
        self.rx_reservation: BufferReservation = rx_port.reserve(
            nf_id, config.rx_buffer_bytes
        )
        self.tx_reservation: BufferReservation = tx_port.reserve(
            nf_id, config.tx_buffer_bytes
        )
        self.scheduler = PacketSchedulerUnit(nf_id, config.scheduler)
        self.rx_ring = PacketRing(
            memory,
            data_base=rx_ring_data_base,
            data_size=ring_data_bytes,
            desc_base=rx_ring_desc_base,
            capacity=config.ring_capacity,
        )
        self.tx_ring = PacketRing(
            memory,
            data_base=tx_ring_data_base,
            data_size=ring_data_bytes,
            desc_base=tx_ring_desc_base,
            capacity=config.ring_capacity,
        )
        # The three locked entries of §5.2: packet buffers (PB), packet
        # descriptor buffer (PDB), output descriptor buffer (ODB).
        desc_bytes = config.ring_capacity * PacketRing.DESCRIPTOR_BYTES
        self.scheduler.install_window(
            min(rx_ring_data_base, tx_ring_data_base), 2 * ring_data_bytes
        )
        self.scheduler.install_window(rx_ring_desc_base, desc_bytes)
        self.scheduler.install_window(tx_ring_desc_base, desc_bytes)
        self.scheduler.lock()
        self.switching_rules: List[SwitchingRule] = [
            SwitchingRule(match=rule, nf_id=nf_id) for rule in config.rules
        ]

    def deliver(self, packet: Packet) -> int:
        """The scheduler copies a classified packet into the RX ring."""
        frame = packet.to_bytes()
        # Scheduler-side check mirrors the hardware: the ring's data
        # region must be inside the locked TLB's reach.
        self.scheduler.check_dma(self.rx_ring.data_base, len(frame))
        return self.rx_ring.push(frame)

    def receive(self) -> Optional[Packet]:
        """The function pops its next packet (None when empty)."""
        frame = self.rx_ring.pop()
        return Packet.from_bytes(frame) if frame is not None else None

    def transmit(self, packet: Packet) -> int:
        """The function queues a packet for the output module."""
        frame = packet.to_bytes()
        self.scheduler.check_dma(self.tx_ring.data_base, len(frame))
        return self.tx_ring.push(frame)

    def drain_tx(self, tx_port: TXPort) -> int:
        """Output module: copy TX-ring frames onto the wire as they are."""
        sent = 0
        while True:
            frame = self.tx_ring.pop()
            if frame is None:
                break
            tx_port.wire_transmit(self.nf_id, frame)
            sent += 1
        return sent

    def release(self, rx_port: RXPort, tx_port: TXPort) -> None:
        rx_port.release(self.nf_id)
        tx_port.release(self.nf_id)
        self.scheduler.clear()
