"""The network-function interface.

A network function is "a piece of code which manipulates packets" (§1).
Every NF in this package consumes one packet at a time and returns the
(possibly rewritten) packet, or ``None`` to drop it.  NFs are plain
Python objects so they can run in three contexts: directly (unit tests
and benchmarks), on a commodity-NIC model's cores, or inside an S-NIC
virtual NIC.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.net.packet import Packet


@dataclass
class NFStats:
    """Uniform counters every NF maintains."""

    received: int = 0
    forwarded: int = 0
    dropped: int = 0

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.received if self.received else 0.0


class NetworkFunction(abc.ABC):
    """Base class for packet-processing functions."""

    #: Canonical short name (matches the paper's tables: FW, DPI, ...).
    name: str = "nf"

    def __init__(self) -> None:
        self.stats = NFStats()

    @abc.abstractmethod
    def handle(self, packet: Packet) -> Optional[Packet]:
        """Process one packet.  Return the output packet or ``None``."""

    def process(self, packet: Packet) -> Optional[Packet]:
        """``handle`` plus bookkeeping; the entry point callers use."""
        self.stats.received += 1
        result = self.handle(packet)
        if result is None:
            self.stats.dropped += 1
        else:
            self.stats.forwarded += 1
        return result

    def state_bytes(self) -> int:
        """Approximate size of the NF's mutable state, in bytes.

        Used by the memory-model layer; subclasses with interesting state
        override this.  The paper-calibrated footprints used by the cost
        experiments live in :mod:`repro.cost.profiles` (the paper
        profiled Rust binaries, not these Python objects).
        """
        return 0

    def reset(self) -> None:
        """Drop mutable state (between experiment runs)."""
        self.stats = NFStats()
