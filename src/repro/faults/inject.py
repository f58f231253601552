"""Fault interposition: armed plan events become live hardware faults.

:class:`FaultInjector` wraps the hardware and core models with IsoSan's
own :class:`~repro.analysis.isosan.Interposer` (method wrap-and-pin
with restore bookkeeping) and consults its armed-event table on every
interposed operation.  A hit turns into the fault's mechanical effect —
a raised :class:`~repro.core.errors.FaultInjected`, a swallowed packet,
a wedged accelerator thread, a burst of babble bytes on the bus — plus
a tenant-tagged tracer instant and a ``faults_injected_total`` counter
increment, so every injection is visible in the same observability
plane as the behaviour it perturbs.

Install/uninstall nests *inside* an active IsoSan scope: both wrap some
of the same methods (``DMABank.to_nic``/``to_host``, the temporal bus
arbiter), and class-attribute restoration must unwind LIFO.  The chaos
driver installs the injector strictly within ``sanitized()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.isosan import Interposer
from repro.core.errors import FatalFunctionError, FaultInjected
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.obs.cell import CELL
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer


_Method = Callable[..., Any]


@dataclass
class InjectionRecord:
    """One fault that actually landed (vs merely being scheduled)."""

    kind: FaultKind
    tenant: Optional[int]
    at_ns: Optional[float] = None
    detail: Dict[str, object] = field(default_factory=dict)


class FaultInjector:
    """Armed-fault state + hardware interposers.

    Usage::

        injector = FaultInjector(plan)
        with sanitized():          # IsoSan outermost
            with injector:         # injector strictly inside
                injector.arm(event, target=...)
                ... run workload ...

    ``arm`` takes a :class:`FaultEvent`; most kinds queue until the
    matching operation occurs, while ``DRAM_BIT_FLIP`` /
    ``NIC_OS_STALL`` / ``CORE_HANG`` take effect immediately (they are
    state corruptions, not operation faults) and need a ``target``
    (the :class:`~repro.hw.memory.PhysicalMemory` to corrupt, the
    :class:`~repro.core.nic_os.NICOS` to wedge).
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan if plan is not None else FaultPlan(seed=0)
        self._interposer = Interposer()
        #: Operation faults waiting for their trigger, keyed by
        #: (kind, tenant); tenant ``None`` is a wildcard.
        self._armed: Dict[Tuple[FaultKind, Optional[int]],
                          List[FaultEvent]] = {}
        #: Tenants whose cores currently retire nothing.
        self._hung: set = set()
        #: Per-tenant extra DRAM bytes per access (post-bit-flip ECC
        #: scrub traffic) — nonzero after a DRAM_BIT_FLIP arms.
        self._ecc_extra: Dict[Optional[int], int] = {}
        #: Wire packets held back for reordering:
        #: [port, packet, remaining_arrivals, tenant].
        self._held: List[List[Any]] = []
        #: (address, bitmask) pairs actually flipped in DRAM.
        self.flips: List[Tuple[int, int]] = []
        self.records: List[InjectionRecord] = []

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def arm(self, event: FaultEvent, target: Any = None) -> None:
        """Make one plan event live (immediately or on next trigger)."""
        kind = FaultKind(event.kind)
        if kind is FaultKind.DRAM_BIT_FLIP:
            if target is None:
                raise ValueError("DRAM_BIT_FLIP needs a PhysicalMemory target")
            self._apply_bit_flips(target, event)
        elif kind is FaultKind.NIC_OS_STALL:
            if target is None:
                raise ValueError("NIC_OS_STALL needs a NICOS target")
            target.stalled = True
            self._record(event, tenant=event.tenant, at_ns=event.at_ns)
        elif kind is FaultKind.CORE_HANG:
            self._hung.add(event.tenant)
            self._record(event, tenant=event.tenant, at_ns=event.at_ns)
        else:
            self._armed.setdefault((kind, event.tenant), []).append(event)

    def arm_all(self, targets: Optional[Dict[FaultKind, Any]] = None) -> None:
        """Arm every event in the plan at once (target map by kind)."""
        targets = targets or {}
        for event in self.plan.events():
            self.arm(event, target=targets.get(FaultKind(event.kind)))

    def clear_hang(self, tenant: Optional[int]) -> None:
        """Recovery hook: the watchdog reset un-wedges the core."""
        self._hung.discard(tenant)

    def _take(self, kind: FaultKind,
              tenant: Optional[int]) -> Optional[FaultEvent]:
        for key in ((kind, tenant), (kind, None)):
            queue = self._armed.get(key)
            if queue:
                return queue.pop(0)
        return None

    def _peek_wire(self, kind: FaultKind, packet: Any) -> \
            Optional[FaultEvent]:
        """Match an armed wire fault against an arriving packet.

        A ``dst_ip`` param (dotted string) scopes the fault to one
        destination — how a plan targets one tenant's traffic without
        the port knowing tenants.
        """
        from repro.net.packet import ip_to_str

        for key, queue in self._armed.items():
            if key[0] is not kind or not queue:
                continue
            event = queue[0]
            want = event.param("dst_ip")
            if want is None or str(want) == ip_to_str(packet.ip.dst_ip):
                return queue.pop(0)
        return None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _record(self, event: FaultEvent, tenant: Optional[int],
                at_ns: Optional[float] = None, **detail: object) -> None:
        kind = FaultKind(event.kind)
        record = InjectionRecord(kind=kind, tenant=tenant, at_ns=at_ns,
                                 detail=dict(detail))
        self.records.append(record)
        get_registry().counter(
            "faults_injected_total", kind=kind.value, tenant=tenant).inc()
        if CELL.audit.enabled:
            CELL.audit.append("fault.injected", tenant=tenant, ts_ns=at_ns,
                              fault_kind=kind.value,
                              **{k: v for k, v in detail.items()
                                 if isinstance(v, (int, float, str, bool))
                                 and k != "fault_kind"})
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(f"fault.{kind.value}", ts_ns=at_ns,
                           tenant=tenant, track="faults", cat="faults",
                           **{k: v for k, v in detail.items()
                              if isinstance(v, (int, float, str))})

    def _lifecycle(self, op: str, nf_id: int) -> None:
        get_registry().counter(
            "faults_lifecycle_total", op=op, tenant=nf_id).inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(f"fault.lifecycle.{op}", tenant=nf_id,
                           track="faults", cat="faults")

    # ------------------------------------------------------------------
    # Immediate-effect faults
    # ------------------------------------------------------------------

    def _apply_bit_flips(self, memory: Any, event: FaultEvent) -> None:
        """Corrupt DRAM cells directly, beneath every mediation layer.

        Hardware bit-flips don't go through the MMU, so this pokes the
        backing bytearrays rather than calling ``memory.write`` — which
        also means IsoSan (correctly) cannot see it: the *blast radius*
        of the corruption, not its occurrence, is what isolation bounds.
        The flip addresses come from the plan's seeded RNG.
        """
        base = int(event.param("base", 0))
        size = int(event.param("size", memory.size_bytes))
        n_flips = int(event.param("n_flips", 8))
        rng = self.plan.rng
        flipped: List[Tuple[int, int]] = []
        for _ in range(n_flips):
            addr = base + rng.randrange(max(size, 1))
            mask = 1 << rng.randrange(8)
            page_index, offset = divmod(addr, memory.page_size)
            page = memory._pages.setdefault(
                page_index, bytearray(memory.page_size))
            page[offset] ^= mask
            flipped.append((addr, mask))
        self.flips.extend(flipped)
        extra = int(event.param("ecc_extra_bytes", 4096))
        if extra:
            previous = self._ecc_extra.get(event.tenant, 0)
            self._ecc_extra[event.tenant] = previous + extra
        self._record(event, tenant=event.tenant, at_ns=event.at_ns,
                     n_flips=len(flipped))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._interposer)

    def install(self) -> "FaultInjector":
        if self.installed:
            return self
        from repro.core.runtime import SNICRuntime
        from repro.core.snic import SNIC
        from repro.hw.accelerator import (
            AcceleratorCluster,
            AcceleratorEngine,
            AcceleratorRequest,
        )
        from repro.hw.bus import FCFSArbiter, TemporalPartitioningArbiter
        from repro.hw.cores import ProgrammableCore
        from repro.hw.dma import DMABank
        from repro.hw.dram import DRAMChannel
        from repro.hw.packet_io import RXPort

        inj = self

        wrap = self._interposer.wrap

        # -- DMA: declared-failed and partial transfers ----------------
        def dma_factory(orig: _Method) -> _Method:
            def transfer(bank: Any, mem_a: Any, mem_b: Any, addr_a: int,
                         addr_b: int, n_bytes: int,
                         now_ns: Optional[float] = None) -> Optional[float]:
                event = inj._take(FaultKind.DMA_ERROR, bank.owner)
                if event is not None:
                    # The engine still served the transfer (the bytes
                    # crossed, then the completion was reported bad), so
                    # the occupancy — and on a shared commodity engine,
                    # the co-tenant queueing — is real.
                    completion = orig(bank, mem_a, mem_b, addr_a, addr_b,
                                      n_bytes, now_ns)
                    inj._record(event, tenant=bank.owner, at_ns=now_ns,
                                bytes=n_bytes)
                    raise FaultInjected(
                        f"DMA bank {bank.bank_id}: transfer of {n_bytes} "
                        "bytes reported failed",
                        kind=FaultKind.DMA_ERROR.value, tenant=bank.owner,
                        completion_ns=completion, bytes_done=0)
                event = inj._take(FaultKind.DMA_PARTIAL, bank.owner)
                if event is not None:
                    done = max(1, int(n_bytes *
                                      float(event.param("fraction", 0.5))))
                    completion = orig(bank, mem_a, mem_b, addr_a, addr_b,
                                      done, now_ns)
                    inj._record(event, tenant=bank.owner, at_ns=now_ns,
                                bytes_done=done, bytes=n_bytes)
                    raise FaultInjected(
                        f"DMA bank {bank.bank_id}: only {done}/{n_bytes} "
                        "bytes transferred",
                        kind=FaultKind.DMA_PARTIAL.value, tenant=bank.owner,
                        completion_ns=completion, bytes_done=done)
                return orig(bank, mem_a, mem_b, addr_a, addr_b, n_bytes,
                            now_ns)
            return transfer

        wrap(DMABank, "to_nic", dma_factory)
        wrap(DMABank, "to_host", dma_factory)

        # -- Bus: babble amplification ---------------------------------
        def bus_factory(orig: _Method) -> _Method:
            def request(arbiter: Any, client: int, n_bytes: int,
                        now_ns: float) -> float:
                event = inj._take(FaultKind.BUS_BABBLE, client)
                if event is not None:
                    amplify = int(event.param("amplify", 8))
                    babble_bytes = int(event.param("babble_bytes", 4096))
                    for _ in range(amplify):
                        orig(arbiter, client, babble_bytes, now_ns)
                    inj._record(event, tenant=client, at_ns=now_ns,
                                babble_bytes=amplify * babble_bytes)
                return orig(arbiter, client, n_bytes, now_ns)
            return request

        wrap(FCFSArbiter, "request", bus_factory)
        wrap(TemporalPartitioningArbiter, "request", bus_factory)

        # -- Cores: hang = retire nothing ------------------------------
        def retire_factory(orig: _Method) -> _Method:
            def retire(core: Any, n_instructions: int) -> None:
                if core.owner in inj._hung or None in inj._hung:
                    return None
                return orig(core, n_instructions)
            return retire

        wrap(ProgrammableCore, "retire", retire_factory)

        # -- Accelerators: a wedged request hogs a thread --------------
        def accel_factory(orig: _Method) -> _Method:
            def submit(device: Any, request: Any) -> Any:
                event = inj._take(FaultKind.ACCEL_TIMEOUT, request.owner)
                if event is not None:
                    wedge_ns = float(event.param("wedge_ns", 250_000.0))
                    service = device.service
                    wedge_bytes = max(1, int(
                        (wedge_ns - service.setup_ns) / service.ns_per_byte))
                    wedge = AcceleratorRequest(
                        owner=request.owner, n_bytes=wedge_bytes,
                        issue_ns=request.issue_ns)
                    orig(device, wedge)
                    inj._record(event, tenant=request.owner,
                                at_ns=request.issue_ns, wedge_ns=wedge_ns)
                return orig(device, request)
            return submit

        wrap(AcceleratorCluster, "submit", accel_factory)
        wrap(AcceleratorEngine, "submit_shared", accel_factory)

        # -- Wire: drop / corrupt / duplicate / reorder ----------------
        def wire_factory(orig: _Method) -> _Method:
            def wire_arrival(port: Any, packet: Any) -> None:
                event = inj._peek_wire(FaultKind.WIRE_DROP, packet)
                if event is not None:
                    inj._record(event, tenant=event.tenant,
                                at_ns=packet.arrival_ns)
                    inj._release_held(port, orig)
                    return None
                event = inj._peek_wire(FaultKind.WIRE_CORRUPT, packet)
                if event is not None:
                    # Garble payload bytes only: headers (and therefore
                    # VPP classification) stay intact, so the corruption
                    # is data-plane, deterministic, and detectable.
                    if packet.payload:
                        packet.payload = bytes(
                            b ^ 0xFF for b in packet.payload)
                    inj._record(event, tenant=event.tenant,
                                at_ns=packet.arrival_ns)
                elif (event := inj._peek_wire(
                        FaultKind.WIRE_DUPLICATE, packet)) is not None:
                    orig(port, packet.copy())
                    inj._record(event, tenant=event.tenant,
                                at_ns=packet.arrival_ns)
                elif (event := inj._peek_wire(
                        FaultKind.WIRE_REORDER, packet)) is not None:
                    hold = max(1, int(event.param("hold", 2)))
                    inj._held.append([port, packet, hold, event.tenant])
                    inj._record(event, tenant=event.tenant,
                                at_ns=packet.arrival_ns, hold=hold)
                    return None
                orig(port, packet)
                inj._release_held(port, orig)
                return None
            return wire_arrival

        wrap(RXPort, "wire_arrival", wire_factory)

        # -- Runtime: NF crash mid-handler -----------------------------
        # The crash lands on the function's next woken poll (one that
        # has frames to serve).  The poll's armed slot is left behind
        # for the supervisor's ``SNICRuntime.detach`` to clear, so the
        # crashed identity is never polled again.
        def poll_factory(orig: _Method) -> _Method:
            def _poll(runtime: Any, nf_id: int) -> Any:
                event = inj._take(FaultKind.NF_CRASH, nf_id)
                if event is not None:
                    inj._record(event, tenant=nf_id,
                                at_ns=runtime.sim.now_ns)
                    raise FatalFunctionError(
                        f"NF {nf_id} crashed mid-handler (injected "
                        f"{FaultKind.NF_CRASH.value})")
                return orig(runtime, nf_id)
            return _poll

        wrap(SNICRuntime, "_poll", poll_factory)

        # -- DRAM: post-bit-flip ECC scrub traffic ---------------------
        def dram_factory(orig: _Method) -> _Method:
            def access(channel: Any, tenant: int, n_bytes: int,
                       now_ns: float) -> float:
                extra = inj._ecc_extra.get(tenant, 0)
                if extra:
                    orig(channel, tenant, extra, now_ns)
                return orig(channel, tenant, n_bytes, now_ns)
            return access

        wrap(DRAMChannel, "access", dram_factory)

        # -- SNIC lifecycle: recovery telemetry ------------------------
        def teardown_factory(orig: _Method) -> _Method:
            def nf_teardown(snic: Any, nf_id: int) -> Any:
                result = orig(snic, nf_id)
                inj._lifecycle("teardown", nf_id)
                return result
            return nf_teardown

        def launch_factory(orig: _Method) -> _Method:
            def nf_launch(snic: Any, config: Any) -> int:
                nf_id = orig(snic, config)
                inj._lifecycle("launch", nf_id)
                return nf_id
            return nf_launch

        wrap(SNIC, "nf_teardown", teardown_factory)
        wrap(SNIC, "nf_launch", launch_factory)
        return self

    def _release_held(self, port: Any, orig: _Method) -> None:
        """Count down reorder holds on ``port``; release expired ones."""
        due: List[Any] = []
        for entry in self._held:
            if entry[0] is port:
                entry[2] -= 1
                if entry[2] <= 0:
                    due.append(entry)
        for entry in due:
            self._held.remove(entry)
            orig(port, entry[1])

    def uninstall(self) -> None:
        self._interposer.restore()
        self._armed.clear()
        self._hung.clear()
        self._ecc_extra.clear()
        self._held.clear()

    def __enter__(self) -> "FaultInjector":
        return self.install()

    def __exit__(self, *exc: object) -> bool:
        self.uninstall()
        return False


class PlanDriver:
    """Drains a plan's schedule into an injector as sim time advances.

    Two modes: call :meth:`advance` from a workload's own time loop, or
    :meth:`schedule_on` to pin every event onto an event kernel.
    """

    def __init__(self, plan: FaultPlan, injector: FaultInjector,
                 targets: Optional[Dict[FaultKind, Any]] = None) -> None:
        self.plan = plan
        self.injector = injector
        self.targets = dict(targets or {})
        self._events = plan.events()
        self._cursor = 0

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._events)

    def advance(self, now_ns: float) -> int:
        """Arm every not-yet-armed event with ``at_ns <= now_ns``."""
        armed = 0
        while (self._cursor < len(self._events)
               and self._events[self._cursor].at_ns <= now_ns):
            event = self._events[self._cursor]
            self._cursor += 1
            self.injector.arm(
                event, target=self.targets.get(FaultKind(event.kind)))
            armed += 1
        return armed

    def schedule_on(self, sim: Any) -> None:
        """Pin each remaining event onto ``sim`` at its instant."""
        while self._cursor < len(self._events):
            event = self._events[self._cursor]
            self._cursor += 1
            target = self.targets.get(FaultKind(event.kind))
            sim.schedule_at(
                int(event.at_ns),
                lambda e=event, t=target: self.injector.arm(e, target=t))
