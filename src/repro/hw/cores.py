"""Programmable cores: the CPUs that run tenant network functions.

A commodity smart NIC has up to dozens of these (§3.1).  In this model a
core is (a) an identity that can be allocated to exactly one network
function at a time — the core "bitmap" that ``nf_launch`` checks (§4.1) —
and (b) a timing envelope used by the IPC experiments (§5.3).

The behavioural execution of NFs happens through the core's address
space: a core can only reach memory through the TLB bank that
``nf_launch`` configured and locked for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.memory import AccessFault, PhysicalMemory
from repro.hw.mmu import GuardedAddressSpace, TLB
from repro.obs.cell import CELL
from repro.obs.interference import RESOURCE_CORES
from repro.obs.metrics import get_registry, instance_label


@dataclass(frozen=True)
class CoreTimingConfig:
    """Per-core timing parameters, matched to the §5.3 gem5 setup.

    The simulated NIC had "multiple out-of-order, 1.2 GHz ARM cores"; we
    model the memory-level parallelism of the OoO pipeline with a base
    CPI plus stall fractions per miss (see :mod:`repro.perf.ipc`).
    """

    frequency_ghz: float = 1.2
    base_cpi: float = 0.7
    mem_refs_per_instr: float = 0.25
    l1_hit_ns: float = 1.0
    l2_hit_ns: float = 8.0
    #: Fraction of a miss's latency the OoO window fails to hide.
    stall_exposure: float = 0.35

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz


class ProgrammableCore:
    """A programmable core with an attached, lockable TLB bank."""

    def __init__(
        self,
        core_id: int,
        memory: PhysicalMemory,
        tlb_capacity: int = 512,
        timing: Optional[CoreTimingConfig] = None,
    ) -> None:
        self.core_id = core_id
        self.memory = memory
        self.tlb = TLB(capacity=tlb_capacity, name=f"core{core_id}-tlb")
        self.timing = timing or CoreTimingConfig()
        self.owner: Optional[int] = None  # NF id, or None when free
        self.address_space = GuardedAddressSpace(self.tlb, memory)
        registry = get_registry()
        obs_label = instance_label(f"core{core_id}")
        # Core-to-NF binding is dynamic: these per-core infrastructure
        # counters attribute ownership at sample time (the pull gauges
        # in repro.obs.scenario), not at mint time.
        self._instructions = registry.counter(  # snic: ignore[SNIC004]
            "core_instructions_total", core=obs_label)
        self._stalls = registry.counter(  # snic: ignore[SNIC004]
            "core_stall_cycles_total", core=obs_label)

    @property
    def instructions_retired(self) -> int:
        """Read-through to the registry's ``core_instructions_total``."""
        return int(self._instructions.value)

    @property
    def stall_cycles(self) -> int:
        return int(self._stalls.value)

    @property
    def allocated(self) -> bool:
        return self.owner is not None

    def bind(self, nf_id: int) -> None:
        """Allocate this core to a function (trusted hardware only)."""
        if self.allocated:
            raise AccessFault(
                f"core {self.core_id} already bound to NF {self.owner}"
            )
        self.owner = nf_id

    def unbind(self) -> None:
        """Release the core, clearing registers and TLB state (§4.6)."""
        self.owner = None
        self._instructions.reset()
        self._stalls.reset()
        self.tlb.clear(force=True)

    def load(self, vaddr: int, size: int) -> bytes:
        """A load through the core's (locked) TLB bank."""
        return self.address_space.load(vaddr, size)

    def store(self, vaddr: int, data: bytes) -> None:
        """A store through the core's (locked) TLB bank."""
        self.address_space.store(vaddr, data)

    def retire(self, n_instructions: int) -> None:
        self._instructions.value += n_instructions

    def record_stalls(self, n_cycles: float,
                      culprit: Optional[int] = None) -> None:
        """Account memory-stall cycles attributed to this core (used by
        the trace-driven IPC experiments).

        When the caller knows *why* the core stalled — e.g. the stall
        is the refill latency of a cache conflict miss another tenant
        caused — it passes the responsible security domain as
        ``culprit`` and the stall time (cycles × cycle time) lands in
        the interference matrix under resource ``cores``.
        """
        self._stalls.value += n_cycles
        if culprit is not None and self.owner is not None:
            CELL.accountant.blame(
                RESOURCE_CORES, victim=self.owner, culprit=culprit,
                wait_ns=n_cycles * self.timing.cycle_ns)
        if CELL.tracer.enabled:
            CELL.tracer.instant("core.stall", tenant=self.owner,
                                track=f"core{self.core_id}", cat="core",
                                cycles=n_cycles)
