"""The NIC/host DMA controller.

Section 4.2: "S-NIC's DMA controller must provide isolation for both
transfer directions ... S-NIC achieves these properties using a
multi-bank DMA controller, with one bank per programmable core.  Each
bank has TLB entries for the upstream and downstream transfer
directions."  (This mirrors SR-IOV DMA engines.)

A :class:`DMAWindow` is the sanctioned region on each side; transfers are
rejected unless both endpoints fall inside the bank's windows.  The
commodity models bypass this class entirely (their DMA engines take raw
physical addresses), which is part of why the §3.3 attacks work there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hw.bus import FCFSArbiter
from repro.hw.memory import AccessFault, HostMemory, PhysicalMemory
from repro.obs.cell import CELL
from repro.obs.metrics import Counter, get_registry, instance_label


#: Nominal DMA engine bandwidth (PCIe-ish, bytes/ns).
DMA_ENGINE_BANDWIDTH = 8.0


def _dma_fault(message: str) -> AccessFault:
    """Build the canonical DMA failure exception.

    ``DMAFault`` lives in ``repro.core.errors`` (it is part of the
    S-NIC error taxonomy) but ``repro.core``'s package ``__init__``
    eagerly imports the hw layer, so importing it at module scope here
    would create a cycle; resolve it lazily at the raise sites instead.
    The class subclasses :class:`AccessFault`, so every historical
    ``except AccessFault`` caller still works.
    """
    from repro.core.errors import DMAFault

    return DMAFault(message)


@dataclass(frozen=True)
class DMAWindow:
    """An allowed address window ``[base, base + size)``."""

    base: int
    size: int

    def contains(self, addr: int, n_bytes: int) -> bool:
        return self.base <= addr and addr + n_bytes <= self.base + self.size


class DMABank:
    """One per-core DMA bank with upstream/downstream windows.

    * downstream: host RAM → NIC RAM (function bootstrap, workload data)
    * upstream:   NIC RAM → host RAM (results)

    Windows are installed by ``nf_launch`` and locked; per the paper each
    bank needs only ~2 TLB entries (Table 4) because each side is one
    contiguous region.
    """

    def __init__(self, bank_id: int,
                 engine: Optional[FCFSArbiter] = None) -> None:
        self.bank_id = bank_id
        self.owner: Optional[int] = None
        self.nic_window: Optional[DMAWindow] = None
        self.host_window: Optional[DMAWindow] = None
        self._locked = False
        self._obs_label = instance_label(f"dma{bank_id}")
        self._bytes: Optional[Counter] = None
        self._rejects: Optional[Counter] = None
        #: The engine serving this bank's transfers.  S-NIC gives every
        #: bank its own engine (per-core, §4.2) so a bank's service time
        #: depends only on its own stream; a commodity controller hands
        #: all banks ONE shared engine, and the FCFS queueing behind
        #: other banks is cross-tenant interference the arbiter blames
        #: via the accountant (resource ``dma``).
        self.engine = engine if engine is not None else FCFSArbiter(
            bandwidth_bytes_per_ns=DMA_ENGINE_BANDWIDTH, resource="dma")

    @property
    def bytes_moved(self) -> int:
        """Bytes transferred since configure; read-through to the
        registry's ``dma_bytes_total`` counter."""
        return int(self._bytes.value) if self._bytes is not None else 0

    def configure(
        self, owner: int, nic_window: DMAWindow, host_window: DMAWindow
    ) -> None:
        if self._locked:
            raise _dma_fault(f"DMA bank {self.bank_id} is locked")
        self.owner = owner
        self.nic_window = nic_window
        self.host_window = host_window
        registry = get_registry()
        self._bytes = registry.counter(
            "dma_bytes_total", bank=self._obs_label, tenant=owner)
        self._rejects = registry.counter(
            "dma_window_rejects_total", bank=self._obs_label, tenant=owner)
        self._bytes.reset()
        self._rejects.reset()

    def lock(self) -> None:
        self._locked = True

    def release(self) -> None:
        self.owner = None
        self.nic_window = None
        self.host_window = None
        self._locked = False
        if self._bytes is not None:
            self._bytes.reset()
            self._rejects.reset()
        self._bytes = None
        self._rejects = None

    def _check(self, nic_addr: int, host_addr: int, n_bytes: int) -> None:
        if self.nic_window is None or self.host_window is None:
            raise _dma_fault(f"DMA bank {self.bank_id} not configured")
        if not self.nic_window.contains(nic_addr, n_bytes):
            self._count_reject()
            raise _dma_fault(
                f"DMA bank {self.bank_id}: NIC address {nic_addr:#x} "
                f"(+{n_bytes}) outside the function's window"
            )
        if not self.host_window.contains(host_addr, n_bytes):
            self._count_reject()
            raise _dma_fault(
                f"DMA bank {self.bank_id}: host address {host_addr:#x} "
                f"(+{n_bytes}) outside the host-sanctioned window"
            )

    def _count_reject(self) -> None:
        if self._rejects is not None:
            self._rejects.inc()
        if CELL.tracer.enabled:
            CELL.tracer.instant("dma.window_reject", tenant=self.owner,
                                track=f"dma-bank{self.bank_id}", cat="dma")

    def _trace_transfer(self, direction: str, n_bytes: int) -> None:
        tracer = CELL.tracer
        if tracer.enabled:
            # The window-checked copy is instantaneous in this model; a
            # nominal per-byte time gives the span visible width.
            tracer.complete(f"dma.{direction}", tracer.now(), n_bytes / 12.8,
                            tenant=self.owner,
                            track=f"dma-bank{self.bank_id}", cat="dma",
                            bytes=n_bytes)

    def _schedule(self, n_bytes: int, now_ns: Optional[float]) -> Optional[float]:
        """Run the transfer through the bank's engine (when timed).

        Returns the completion time, or ``None`` for the untimed
        historical call pattern (window checks and the copy still
        happen; only the queueing model is skipped).
        """
        if now_ns is None or self.owner is None:
            return None
        return self.engine.request(self.owner, n_bytes, now_ns)

    def to_nic(
        self,
        host_mem: HostMemory,
        nic_mem: PhysicalMemory,
        host_addr: int,
        nic_addr: int,
        n_bytes: int,
        now_ns: Optional[float] = None,
    ) -> Optional[float]:
        """Downstream transfer: host → NIC, both windows enforced.

        With ``now_ns`` the transfer is also scheduled on the bank's
        DMA engine and the completion time is returned (queueing behind
        other banks on a shared commodity engine is attributed by the
        interference accountant).
        """
        self._check(nic_addr, host_addr, n_bytes)
        nic_mem.write(nic_addr, host_mem.read(host_addr, n_bytes))
        self._bytes.value += n_bytes
        self._trace_transfer("to_nic", n_bytes)
        return self._schedule(n_bytes, now_ns)

    def to_host(
        self,
        nic_mem: PhysicalMemory,
        host_mem: HostMemory,
        nic_addr: int,
        host_addr: int,
        n_bytes: int,
        now_ns: Optional[float] = None,
    ) -> Optional[float]:
        """Upstream transfer: NIC → host, both windows enforced.

        See :meth:`to_nic` for the ``now_ns`` timing semantics.
        """
        self._check(nic_addr, host_addr, n_bytes)
        host_mem.write(host_addr, nic_mem.read(nic_addr, n_bytes))
        self._bytes.value += n_bytes
        self._trace_transfer("to_host", n_bytes)
        return self._schedule(n_bytes, now_ns)


class DMAController:
    """The multi-bank controller: one bank per programmable core.

    ``shared_engine=True`` models the commodity design: every bank's
    transfers funnel through ONE engine, so co-tenant DMA queueing is
    observable (and attributed).  The default — one engine per bank —
    is S-NIC's isolation-by-construction (§4.2).
    """

    def __init__(self, n_banks: int, shared_engine: bool = False,
                 engine_bandwidth: float = DMA_ENGINE_BANDWIDTH) -> None:
        if n_banks <= 0:
            raise ValueError("need at least one DMA bank")
        self.shared_engine = shared_engine
        engine = FCFSArbiter(bandwidth_bytes_per_ns=engine_bandwidth,
                             resource="dma") if shared_engine else None
        self.banks: List[DMABank] = [
            DMABank(i, engine=engine) for i in range(n_banks)
        ]

    def bank_for_core(self, core_id: int) -> DMABank:
        if not 0 <= core_id < len(self.banks):
            raise _dma_fault(f"no DMA bank for core {core_id}")
        return self.banks[core_id]

    def banks_for_owner(self, owner: int) -> List[DMABank]:
        return [b for b in self.banks if b.owner == owner]

    def release_owner(self, owner: int) -> int:
        """Release every bank bound to ``owner`` (teardown); returns count."""
        released = 0
        for bank in self.banks_for_owner(owner):
            bank.release()
            released += 1
        return released
