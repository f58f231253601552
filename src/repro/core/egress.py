"""Egress scheduling across virtual packet pipelines.

§4 (design overview): "a virtual smart NIC also possesses reserved
bandwidth in the memory bus **and the packet input/output modules** of
the physical smart NIC."  On the output side that means one tenant's TX
backlog must not starve another's wire share — the same
non-interference discipline the bus arbiter provides, applied to the TX
port.

:class:`DRREgressScheduler` implements deficit round robin (the classic
fair packet scheduler the paper's citations [107, 110] build on): each
live VPP owns a deficit counter credited with a per-round quantum;
a VPP may transmit while its counter covers the head frame.  The
guarantees, asserted in the tests:

* **work conservation** — the wire never idles while any ring is
  non-empty;
* **fairness** — over a backlogged period, per-tenant bytes on the wire
  are proportional to their (equal) quanta regardless of backlog sizes;
* **isolation** — a tenant flooding its TX ring cannot reduce another
  tenant's share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.hw.packet_io import TXPort


@dataclass
class EgressStats:
    frames: int = 0
    bytes: int = 0


class DRREgressScheduler:
    """Deficit-round-robin drain of many VPP TX rings onto one TX port."""

    def __init__(self, quantum_bytes: int = 1600) -> None:
        if quantum_bytes <= 0:
            raise ValueError("quantum must be positive")
        self.quantum_bytes = quantum_bytes
        self._deficit: Dict[int, int] = {}
        self.stats: Dict[int, EgressStats] = {}

    def forget(self, nf_id: int) -> None:
        """Drop scheduler state for a destroyed function."""
        self._deficit.pop(nf_id, None)

    def drain(
        self,
        vpps: Dict[int, "object"],
        tx_port: TXPort,
        max_bytes: Optional[int] = None,
    ) -> int:
        """One scheduling pass: serve every backlogged VPP fairly.

        ``vpps`` maps nf_id -> VirtualPacketPipeline.  ``max_bytes``
        caps total wire bytes this pass (the port's transmit budget);
        ``None`` drains everything.  Returns frames transmitted.
        """
        active = {
            nf_id: vpp for nf_id, vpp in vpps.items()
            if vpp.tx_ring.occupancy > 0
        }
        sent_frames = 0
        sent_bytes = 0
        while active:
            progressed = False
            for nf_id in sorted(active):
                vpp = active.get(nf_id)
                if vpp is None:
                    continue
                self._deficit[nf_id] = (
                    self._deficit.get(nf_id, 0) + self.quantum_bytes
                )
                while vpp.tx_ring.occupancy > 0:
                    head_addr, head_len = vpp.tx_ring.peek_descriptors()[0]
                    if head_len > self._deficit[nf_id]:
                        break
                    if max_bytes is not None and sent_bytes + head_len > max_bytes:
                        return sent_frames
                    frame = vpp.tx_ring.pop()
                    tx_port.wire_transmit(nf_id, frame)
                    self._deficit[nf_id] -= len(frame)
                    stats = self.stats.setdefault(nf_id, EgressStats())
                    stats.frames += 1
                    stats.bytes += len(frame)
                    sent_frames += 1
                    sent_bytes += len(frame)
                    progressed = True
                if vpp.tx_ring.occupancy == 0:
                    self._deficit[nf_id] = 0  # empty queues keep no credit
                    del active[nf_id]
            if not progressed and active:
                # Every remaining head frame exceeds one quantum; loop
                # again to accumulate credit (bounded by frame size).
                continue
        return sent_frames
