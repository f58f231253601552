"""The chaos experiment: differential blast radius, commodity vs S-NIC.

For every fault class in the taxonomy this module runs the same
two-tenant workload four times — {commodity, S-NIC} x {clean, faulted}
— with the fault always injected into tenant ``FAULTY``'s resources and
the observation always taken from tenant ``VICTIM``'s side.  The
*disruption* a co-tenant suffers is the absolute difference between its
clean and faulted observations (latency, completions, corruptions, ...).

The report this produces is the paper's §3.3 fate-sharing study turned
into a regression gate:

* on the **commodity** models (shared FCFS bus, shared DMA engine,
  shared accelerator pool, kernel-on-the-datapath, whole-NIC reboot
  recovery) every fault class must show **nonzero** victim disruption —
  the blast radius is the device;
* on the **S-NIC** models (temporal bus partitioning §4.5, per-bank DMA
  engines §4.2, per-tenant accelerator clusters §4.3, off-datapath NIC
  OS §4.2, scrub-verified restart §4.6) every fault class must show
  **exactly zero** victim disruption and exactly zero cross-tenant
  attributed wait — the blast radius is the faulty tenant.

The legs run through :func:`repro.obs.bench.run_differential`, the
runner ``repro audit`` shares (its perturbation is a well-behaved
co-tenant, and its bus and DRAM legs run :func:`bus_rig` and
:func:`dram_rig` below): each leg in its own cell, all inside one IsoSan
``sanitized()`` scope.  All randomness flows from the one ``--seed``
through each leg's :class:`FaultPlan`, so the same seed produces a
byte-identical report.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import (Any, Callable, ContextManager, Dict, IO, Iterator, List,
                    Optional, Sequence, Tuple)

from repro.faults.inject import FaultInjector, PlanDriver
from repro.faults.plan import ALL_FAULT_KINDS, FaultKind, FaultPlan
from repro.faults.recovery import (
    BackoffPolicy,
    CommodityRecovery,
    NFSupervisor,
    Watchdog,
    retry_dma,
)
from repro.obs import postmortem as postmortem_mod
from repro.obs.bench import emit_report, format_json, run_differential
from repro.obs.interference import get_accountant

SCHEMA_VERSION = 1

#: The co-tenant whose experience we measure.
VICTIM = 1
#: The tenant every fault is injected into.
FAULTY = 2

_SCALE = {"full": 48, "quick": 16}

#: The default (non ``--matrix``) demonstration set: one fault per
#: major surface — shared bus, shared DMA engine, crashed function.
HEADLINE_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.BUS_BABBLE,
    FaultKind.DMA_ERROR,
    FaultKind.NF_CRASH,
)

MB = 1024 * 1024

_Observation = Dict[str, float]
_Info = Dict[str, float]
_Workload = Callable[[bool, "_Fault", int], Tuple[_Observation, _Info]]


# ----------------------------------------------------------------------
# Workloads: one per fault kind.
#
# Signature: (snic, fault, rounds) -> (victim observation, info).
# ``fault`` holds the leg's own FaultPlan(seed), which the clean and
# the faulted leg author alike.  A workload authors the plan, sets up
# its rig and only then installs the injector through
# ``fault.injecting()``, strictly inside the runner's sanitized()
# scope (IsoSan outermost, injector inner — both wrap some of the same
# methods and must unwind LIFO).  Only a faulted leg installs one, so a
# clean leg's plan never fires.
# ----------------------------------------------------------------------


class _Fault:
    """One leg's fault plan and the injector a faulted leg installs over
    its rig; a clean leg installs none, so its plan never fires."""

    def __init__(self, seed: int, inject: bool) -> None:
        self.plan = FaultPlan(seed)
        self.inject = inject
        self.injector: Optional[FaultInjector] = None

    @contextlib.contextmanager
    def injecting(self, targets: Optional[Dict[FaultKind, object]] = None,
                  arm: bool = True) -> Iterator[Optional[FaultInjector]]:
        """Install the injector for the block; ``arm`` arms the whole
        plan at once with ``targets``, else a :class:`PlanDriver`
        releases it as the workload's time advances."""
        if self.inject:
            self.injector = FaultInjector(self.plan)
        with self.injector or contextlib.nullcontext() as injector:
            if injector is not None and arm:
                injector.arm_all(targets)
            yield injector


def bus_rig(snic: bool, cotenant: bool, rounds: int,
            during: ContextManager[object] = contextlib.nullcontext()
            ) -> List[float]:
    """The victim's per-probe bus latencies (ns) for periodic 1500 B probes.

    Commodity: one FCFS arbiter; the co-tenant's 48 kB burst at the
    start of each period backlogs the bus right when the victim probes.
    S-NIC: temporal partitioning (§4.5) — the co-tenant can only spend
    its own epochs, so the victim's latency is identical with or without
    it.  The probes run inside ``during`` (the chaos leg's injector).
    """
    from repro.hw.bus import FCFSArbiter, TemporalPartitioningArbiter

    if snic:
        arbiter = TemporalPartitioningArbiter(
            domains=[VICTIM, FAULTY], bandwidth_bytes_per_ns=12.8,
            epoch_ns=1_000.0, dead_time_ns=100.0)
    else:
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=12.8)
    latencies: List[float] = []
    with during:
        for i in range(rounds):
            t = i * 8_000.0
            if cotenant:
                arbiter.request(FAULTY, 48_000, t)
            issue = t + 100.0
            latencies.append(arbiter.request(VICTIM, 1_500, issue) - issue)
    return latencies


def dram_rig(snic: bool, cotenant: bool, rounds: int,
             during: ContextManager[object] = contextlib.nullcontext()
             ) -> List[float]:
    """The victim's per-access DRAM latencies (ns) for single-line reads.

    Shared channel: the co-tenant's 64 kB transfer occupies the channel
    when the victim's read arrives.  Partitioned: the victim's own
    bandwidth reservation serves it at a co-tenant-independent latency.
    The reads run inside ``during`` (the chaos leg's injector).
    """
    from repro.hw.dram import DRAMChannel

    channel = DRAMChannel()
    if snic:
        channel.partition([VICTIM, FAULTY])
    latencies: List[float] = []
    with during:
        for i in range(rounds):
            t = i * 16_000.0
            if cotenant:
                channel.access(FAULTY, 64_000, t)
            issue = t + 10.0
            latencies.append(channel.access(VICTIM, 64, issue) - issue)
    return latencies


def _total(latencies: List[float]) -> float:
    """The latencies added one by one in probe order: plain float adds,
    which ``sum`` does not promise on every Python version."""
    total = 0.0
    for latency in latencies:
        total += latency
    return total


def _bus_babble_workload(snic: bool, fault: _Fault,
                         rounds: int) -> Tuple[_Observation, _Info]:
    """§3.3's Agilio bus DoS: the faulty tenant babbles on the IO bus."""
    fault.plan.burst(FaultKind.BUS_BABBLE, FAULTY, start_ns=0, count=rounds,
                     period_ns=8_000, amplify=16, babble_bytes=8_192)
    latencies = bus_rig(snic, True, rounds, fault.injecting())
    return {"completed": float(rounds), "latency_ns": _total(latencies)}, {}


def _dram_bit_flip_workload(snic: bool, fault: _Fault,
                            rounds: int) -> Tuple[_Observation, _Info]:
    """Bit-flips in DRAM plus the ECC scrub traffic they trigger.

    Commodity: one shared arena (flips land anywhere, including the
    victim's pages) and one shared channel (the faulty tenant's scrub
    traffic queues ahead of the victim).  S-NIC: flips are confined to
    the faulty function's extent and the channel is partitioned.
    """
    from repro.hw.memory import PhysicalMemory

    arena = PhysicalMemory(256 * 1024)
    half = arena.size_bytes // 2  # victim: [0, half); faulty: [half, end)
    base, size = (half, half) if snic else (0, arena.size_bytes)
    fault.plan.at(0, FaultKind.DRAM_BIT_FLIP, tenant=FAULTY, base=base,
                  size=size, n_flips=32)
    latencies = dram_rig(snic, True, rounds, fault.injecting(
        {FaultKind.DRAM_BIT_FLIP: arena}))
    flips = fault.injector.flips if fault.injector is not None else []
    obs = {"completed": float(rounds), "latency_ns": _total(latencies),
           "corrupted": float(sum(1 for addr, _ in flips if addr < half))}
    return obs, {"flips": float(len(flips))}


def _dma_workload(kind: FaultKind, snic: bool, fault: _Fault,
                  rounds: int) -> Tuple[_Observation, _Info]:
    """DMA transfer failures, retried under bounded backoff.

    The faulty tenant's failed transfer is re-driven by ``retry_dma``;
    on the commodity *shared* engine every retry occupies the engine
    again and the victim's mid-period transfer queues behind it.  S-NIC
    gives each bank its own engine (§4.2), so retries are invisible.
    """
    from repro.hw.dma import DMAController, DMAWindow
    from repro.hw.memory import HostMemory, PhysicalMemory

    window = 64 * 1024
    nic_mem = PhysicalMemory(2 * window)
    host_mem = HostMemory(8 * window)
    controller = DMAController(2, shared_engine=not snic)
    for bank_id, owner in ((0, VICTIM), (1, FAULTY)):
        controller.banks[bank_id].configure(
            owner,
            nic_window=DMAWindow(bank_id * window, window),
            host_window=DMAWindow((4 + bank_id) * window, window))
    victim_bank = controller.banks[0]
    faulty_bank = controller.banks[1]
    fault.plan.burst(kind, FAULTY, start_ns=0, count=rounds,
                     period_ns=16_000, fraction=0.5)
    latency = 0.0
    exhausted = 0
    with fault.injecting():
        policy = BackoffPolicy(attempts=3, base_ns=500)
        for i in range(rounds):
            t = i * 16_000.0

            def op(done: int, now: float) -> Optional[float]:
                return faulty_bank.to_nic(
                    host_mem, nic_mem, 5 * window + done,
                    window + done, 32_768 - done, now_ns=now)

            try:
                retry_dma(op, policy=policy, now_ns=t, tenant=FAULTY)
            except Exception:  # RecoveryExhausted: budget ran out
                exhausted += 1
            # Probe while the faulty tenant's retries still occupy a
            # shared engine (the clean transfer alone also overlaps,
            # so the *difference* isolates the retry traffic).
            issue = t + 3_000.0
            done_at = victim_bank.to_nic(
                host_mem, nic_mem, 4 * window, 0, 4_096, now_ns=issue)
            latency += done_at - issue
    obs = {"completed": float(rounds), "latency_ns": latency}
    return obs, {"retries_exhausted": float(exhausted)}


def _wire_workload(kind: FaultKind, snic: bool, fault: _Fault,
                   rounds: int) -> Tuple[_Observation, _Info]:
    """Wire faults through a real RX port.

    Commodity: one shared wire-facing firmware path — faults cannot be
    scoped to a tenant (they hit whatever arrives next) and all staged
    packets share one FIFO service loop.  S-NIC: per-VPP staging scopes
    each fault to the faulty tenant's destinations, and each tenant's
    pipeline has an independent service cursor (§4.4).
    """
    from repro.hw.packet_io import RXPort
    from repro.net.packet import Packet, ip_to_str

    payload = b"x" * 64
    victim_dst, faulty_dst = "20.0.0.9", "30.0.0.9"
    n_events = max(2, rounds // 4)
    if snic:
        fault.plan.burst(kind, FAULTY, start_ns=0, count=n_events,
                         period_ns=2_000, dst_ip=faulty_dst)
    else:
        fault.plan.burst(kind, None, start_ns=0, count=n_events,
                         period_ns=2_000)
    port = RXPort()
    with fault.injecting():
        for i in range(rounds):
            base = i * 2_000
            victim_pkt = Packet.make("10.0.0.1", victim_dst,
                                     src_port=4_000 + i, dst_port=80,
                                     payload=payload)
            victim_pkt.arrival_ns = base
            faulty_pkt = Packet.make("10.0.0.2", faulty_dst,
                                     src_port=5_000 + i, dst_port=80,
                                     payload=payload)
            faulty_pkt.arrival_ns = base + 700
            port.wire_arrival(victim_pkt)
            port.wire_arrival(faulty_pkt)
        staged = port.drain()

    service_ns, slow_factor = 600.0, 4.0
    latency = completed = corrupted = 0.0
    cursors: Dict[str, float] = {}
    for packet in staged:
        dst = ip_to_str(packet.ip.dst_ip)
        # S-NIC: per-pipeline cursor; commodity: one shared cursor.
        key = dst if snic else "shared"
        cost = service_ns * (slow_factor if packet.payload != payload
                             else 1.0)
        start = max(cursors.get(key, 0.0), float(packet.arrival_ns))
        cursors[key] = start + cost
        if dst == victim_dst:
            latency += cursors[key] - packet.arrival_ns
            completed += 1
            if packet.payload != payload:
                corrupted += 1
    obs = {"completed": completed, "latency_ns": latency,
           "corrupted": corrupted}
    return obs, {}


def _core_hang_workload(snic: bool, fault: _Fault,
                        rounds: int) -> Tuple[_Observation, _Info]:
    """A programmable core stops retiring instructions.

    S-NIC: cores are statically bound per function (§4.1), so only the
    faulty tenant's core hangs; a sim-time watchdog detects the missing
    heartbeat and resets that core alone.  Commodity: the tenants
    time-slice one core, the hang takes out everyone, and recovery is a
    whole-NIC power cycle (§3.3).
    """
    from repro.hw.cores import ProgrammableCore
    from repro.hw.events import Simulator
    from repro.hw.memory import PhysicalMemory

    period_ns = 2_000
    slice_instructions = 1_000
    hang_at = (rounds // 3) * period_ns
    # Commodity has no per-tenant binding: tenant None is the
    # injector's wildcard, so the one shared core hangs for all.
    fault.plan.at(hang_at, FaultKind.CORE_HANG,
                  tenant=FAULTY if snic else None)
    sim = Simulator()
    victim_instructions = 0.0
    watchdog: Optional[Watchdog] = None
    recovery: Optional[CommodityRecovery] = None
    with fault.injecting(arm=False) as injector:
        driver = (PlanDriver(fault.plan, injector)
                  if injector is not None else None)

        def arm_watchdog(dog: Watchdog) -> None:
            dog.arm("core-faulty", 3 * period_ns, tenant=FAULTY,
                    on_timeout=lambda exc: injector.clear_hang(FAULTY))

        if snic:
            victim_core = ProgrammableCore(0, PhysicalMemory(64 * 1024))
            victim_core.bind(VICTIM)
            faulty_core = ProgrammableCore(1, PhysicalMemory(64 * 1024))
            faulty_core.bind(FAULTY)
            if injector is not None:
                watchdog = Watchdog(sim)
                arm_watchdog(watchdog)
        else:
            shared_core = ProgrammableCore(0, PhysicalMemory(64 * 1024))
            recovery = CommodityRecovery(reboot_ns=50_000)
        zero_slices = 0
        reboot_ready: Optional[float] = None
        for i in range(rounds):
            t = float(i * period_ns)
            if driver is not None:
                driver.advance(t)
            if snic:
                before = victim_core.instructions_retired
                victim_core.retire(slice_instructions)
                victim_instructions += (victim_core.instructions_retired
                                        - before)
                before_faulty = faulty_core.instructions_retired
                faulty_core.retire(slice_instructions)
                heartbeat = (faulty_core.instructions_retired
                             > before_faulty)
                if watchdog is not None and heartbeat:
                    if "core-faulty" in watchdog.armed:
                        watchdog.pet("core-faulty")
                    else:
                        arm_watchdog(watchdog)
            else:
                if reboot_ready is not None and t < reboot_ready:
                    sim.advance(period_ns)
                    continue  # the NIC is rebooting; nobody runs
                before = shared_core.instructions_retired
                shared_core.retire(slice_instructions)  # victim's slice
                delta = shared_core.instructions_retired - before
                victim_instructions += delta
                shared_core.retire(slice_instructions)  # faulty's slice
                if injector is not None and delta == 0:
                    shared_core.record_stalls(float(slice_instructions),
                                              culprit=FAULTY)
                    zero_slices += 1
                    if zero_slices == 2 and reboot_ready is None:
                        reboot_ready = recovery.power_cycle(t)
                        injector.clear_hang(None)
            sim.advance(period_ns)
    info: _Info = {}
    if watchdog is not None:
        info["watchdog_timeouts"] = float(len(watchdog.timeouts))
    if recovery is not None:
        info["power_cycles"] = float(len(recovery.cycles))
    return {"instructions": victim_instructions}, info


def _accel_timeout_workload(snic: bool, fault: _Fault,
                            rounds: int) -> Tuple[_Observation, _Info]:
    """A wedged accelerator request hogs a hardware thread.

    Commodity: one shared thread pool (§3.2) — the wedge's service time
    is everyone's queueing time.  S-NIC: statically partitioned
    clusters (§4.3) — the wedge burns only the faulty tenant's thread.
    """
    from repro.hw.accelerator import (
        AcceleratorCluster,
        AcceleratorEngine,
        AcceleratorKind,
        AcceleratorRequest,
    )

    fault.plan.burst(FaultKind.ACCEL_TIMEOUT, FAULTY, start_ns=0,
                     count=max(1, rounds // 2), period_ns=50_000,
                     wedge_ns=200_000.0)
    if snic:
        victim_dev = AcceleratorCluster(AcceleratorKind.CRYPTO, 0,
                                        n_threads=1)
        victim_dev.bind(VICTIM)
        faulty_dev = AcceleratorCluster(AcceleratorKind.CRYPTO, 1,
                                        n_threads=1)
        faulty_dev.bind(FAULTY)
    else:
        engine = AcceleratorEngine(AcceleratorKind.CRYPTO, n_threads=1)
    latency = 0.0
    with fault.injecting():
        for i in range(rounds):
            t = i * 50_000.0
            faulty_request = AcceleratorRequest(owner=FAULTY,
                                                n_bytes=1_024, issue_ns=t)
            request = AcceleratorRequest(owner=VICTIM, n_bytes=512,
                                         issue_ns=t + 1_000.0)
            # Submit through the device attribute at call time so the
            # injector's class-level interposer is in the path.
            if snic:
                faulty_dev.submit(faulty_request)
                victim_dev.submit(request)
            else:
                engine.submit_shared(faulty_request)
                engine.submit_shared(request)
            latency += request.latency_ns
    return {"completed": float(rounds), "latency_ns": latency}, {}


def _nf_crash_workload(snic: bool, fault: _Fault,
                       rounds: int) -> Tuple[_Observation, _Info]:
    """The faulty NF raises ``FatalFunctionError`` mid-handler.

    S-NIC runs the full event-driven rig: the crash kills only that
    function's poll, the supervisor tears it down (scrub-verified,
    §4.6) and relaunches it, and the victim's packet timings are
    bit-identical to the clean run.  Commodity serializes both tenants
    through one firmware loop: the crash drops everything queued and the
    whole NIC power-cycles (§3.3).
    """
    if snic:
        return _nf_crash_snic(fault, rounds)
    return _nf_crash_commodity(fault, rounds)


def _crash_spec(seed: int) -> "object":
    """The two-monitor S-NIC deployment the crash workload runs on."""
    from repro.scenario.spec import (
        NFSpec,
        ScenarioSpec,
        TenantSpec,
        TopologySpec,
        TrafficSpec,
    )

    # Traffic is hand-built below (paired arrivals per round), so the
    # spec carries no TrafficSpec load of its own.
    return ScenarioSpec(
        name="chaos-nf-crash-snic",
        seed=seed,
        description="two monitors on one S-NIC; one crashes mid-handler",
        tags=("faults", "chaos"),
        topology=TopologySpec(nic_model="snic", n_cores=4, dram_mb=64,
                              key_seed=7),
        tenants=(
            TenantSpec(name="chaos-victim", nf=NFSpec(kind="monitor"),
                       dst_prefix="20.0.0.0/8"),
            TenantSpec(name="chaos-faulty", nf=NFSpec(kind="monitor"),
                       dst_prefix="30.0.0.0/8"),
        ),
        traffic=TrafficSpec(n_packets=0),
    )


def _nf_crash_snic(fault: _Fault,
                   rounds: int) -> Tuple[_Observation, _Info]:
    from repro.core.errors import FatalFunctionError
    from repro.net.packet import Packet
    from repro.scenario.build import build_scenario

    with build_scenario(_crash_spec(fault.plan.seed)) as built:
        nic_os, runtime = built.nic_os, built.runtime
        victim_id = built.tenants["chaos-victim"]
        faulty_id = built.tenants["chaos-faulty"]
        packets: List = []
        for i in range(rounds):
            for dst, offset in ((("20.0.0.9"), 0), (("30.0.0.9"), 200)):
                packet = Packet.make("10.0.0.1", dst, src_port=4_000 + i,
                                     dst_port=80, payload=b"x" * 64)
                packet.arrival_ns = (i + 1) * 400 + offset
                packets.append(packet)
        runtime.inject(packets)
        fault.plan.at(4_000, FaultKind.NF_CRASH, tenant=faulty_id)
        supervisor = NFSupervisor(nic_os, runtime)
        with fault.injecting() as injector:
            # The injected FatalFunctionError surfaces out of the drain,
            # the supervisor restarts the crashed identity, and the
            # drain resumes.  The clean run takes the exact same loop.
            while True:
                try:
                    runtime.run()
                    break
                except FatalFunctionError:
                    supervisor.on_crash(injector.records[-1].tenant)
        victim_timings = [t for t in runtime.stats.timings
                          if t.nf_id == victim_id]
    obs = {
        "completed": float(len(victim_timings)),
        "latency_ns": float(sum(t.latency_ns for t in victim_timings)),
        "dropped": float(rounds - len(victim_timings)),
    }
    return obs, {"restarts": float(len(supervisor.restarts))}


def _nf_crash_commodity(fault: _Fault,
                        rounds: int) -> Tuple[_Observation, _Info]:
    # One firmware loop, simulated here in closed form: the crash is
    # read off the plan, so only a faulted leg plans it, no injector
    # is installed and the leg counts what it fired itself.
    crash_at = 4_000
    if fault.inject:
        fault.plan.at(crash_at, FaultKind.NF_CRASH, tenant=FAULTY)
    recovery = CommodityRecovery(reboot_ns=50_000)
    pending_crashes = fault.plan.events_for(FaultKind.NF_CRASH)
    outage_until: Optional[float] = None
    cursor = latency = completed = dropped = 0.0
    for i in range(rounds):
        for tenant, offset in ((VICTIM, 0), (FAULTY, 400)):
            arrival = float((i + 1) * 800 + offset)
            if pending_crashes and arrival >= pending_crashes[0].at_ns:
                # The shared firmware image dies with the faulty NF and
                # the whole NIC power-cycles; arrivals during the outage
                # have nowhere to land.
                event = pending_crashes.pop(0)
                outage_until = recovery.power_cycle(float(event.at_ns))
            if outage_until is not None and arrival < outage_until:
                if tenant == VICTIM:
                    dropped += 1
                continue
            start = max(cursor, arrival)
            cursor = start + 600.0
            if tenant == VICTIM:
                latency += cursor - arrival
                completed += 1
    obs = {"completed": completed, "latency_ns": latency,
           "dropped": dropped}
    injected = len(fault.plan.events_for(FaultKind.NF_CRASH)) \
        - len(pending_crashes)
    return obs, {"injected": float(injected),
                 "power_cycles": float(len(recovery.cycles))}


def _nic_os_stall_workload(snic: bool, fault: _Fault,
                           rounds: int) -> Tuple[_Observation, _Info]:
    """The NIC OS management core stops responding.

    S-NIC puts the NIC OS *off* the datapath (§4.2): packets keep
    flowing while management calls fail, and a watchdog resets the
    management core.  Commodity routes the datapath through the kernel,
    so a stalled OS blocks every tenant's packets until the reset.
    """
    from repro.core.nic_os import NICOS
    from repro.core.snic import SNIC
    from repro.hw.events import Simulator

    snic_dev = SNIC(n_cores=4, dram_bytes=16 * MB, key_seed=11)
    nic_os = NICOS(snic_dev)
    period_ns = 1_000
    stall_round = rounds // 3
    fault.plan.at(stall_round * period_ns, FaultKind.NIC_OS_STALL)
    sim = Simulator()
    latency = completed = mgmt_failures = 0.0
    with fault.injecting(arm=False) as injector:
        driver = PlanDriver(fault.plan, injector,
                            targets={FaultKind.NIC_OS_STALL: nic_os}) \
            if injector is not None else None
        watchdog = Watchdog(sim) if injector is not None else None

        def reset_management(exc: object) -> None:
            nic_os.stalled = False

        cursor = 0.0
        backlog: List[float] = []
        for i in range(rounds):
            t = float(i * period_ns)
            if driver is not None:
                driver.advance(t)
            if (watchdog is not None and nic_os.stalled
                    and "nic-os" not in watchdog.armed):
                # Stall detected: deadline = management-core reset time.
                watchdog.arm("nic-os", 4 * period_ns,
                             on_timeout=reset_management)
            if i == stall_round + 1:
                # A management call lands mid-stall (operator's plane,
                # not the victim's datapath observation).
                try:
                    nic_os.os_read(0, 16)
                except Exception:  # FaultInjected while stalled
                    mgmt_failures += 1
            blocked = (not snic) and nic_os.stalled
            if blocked:
                backlog.append(t)
            else:
                for arrival in backlog + [t]:
                    start = max(cursor, t)
                    cursor = start + 300.0
                    latency += cursor - arrival
                    completed += 1
                backlog = []
            sim.advance(period_ns)
    info: _Info = {"mgmt_failures": mgmt_failures}
    if watchdog is not None:
        info["watchdog_timeouts"] = float(len(watchdog.timeouts))
    return {"completed": completed, "latency_ns": latency}, info


_WORKLOADS: Dict[FaultKind, _Workload] = {
    **{kind: functools.partial(_dma_workload, kind)
       for kind in (FaultKind.DMA_ERROR, FaultKind.DMA_PARTIAL)},
    **{kind: functools.partial(_wire_workload, kind)
       for kind in (FaultKind.WIRE_DROP, FaultKind.WIRE_CORRUPT,
                    FaultKind.WIRE_DUPLICATE, FaultKind.WIRE_REORDER)},
    FaultKind.DRAM_BIT_FLIP: _dram_bit_flip_workload,
    FaultKind.CORE_HANG: _core_hang_workload,
    FaultKind.ACCEL_TIMEOUT: _accel_timeout_workload,
    FaultKind.NF_CRASH: _nf_crash_workload,
    FaultKind.NIC_OS_STALL: _nic_os_stall_workload,
    FaultKind.BUS_BABBLE: _bus_babble_workload,
}


# ----------------------------------------------------------------------
# The differential experiment
# ----------------------------------------------------------------------


def _leg(kind: FaultKind, snic: bool, faulted: bool, seed: int,
         rounds: int) -> Tuple[_Observation, _Info, float]:
    """One leg in its cell: the victim's observation, the fault's info
    and the cell's cross-tenant attributed wait."""
    fault = _Fault(seed, faulted)
    obs, info = _WORKLOADS[kind](snic, fault, rounds)
    if fault.injector is not None:
        info["injected"] = float(len(fault.injector.records))
    return obs, info, get_accountant().cross_tenant_wait()


def run_chaos(seed: int = 0, quick: bool = False, matrix: bool = False,
              kinds: Optional[Sequence[str]] = None,
              postmortem_dir: Optional[str] = None) -> Dict[str, object]:
    """Run the blast-radius experiment; returns the report dict.

    ``matrix`` sweeps the full fault taxonomy; the default covers the
    headline kinds.  :func:`~repro.obs.bench.run_differential` runs
    every leg inside one IsoSan ``sanitized()`` scope, each workload
    installs its injector strictly inside it, and all randomness flows
    from ``seed``.

    ``postmortem_dir`` arms the forensic layer around every faulted
    S-NIC leg and drops one deterministic ``POSTMORTEM_*.json`` bundle
    per fault class there — same seed, byte-identical bundles.  The
    injected fault is the incident under investigation, and the clean
    and commodity legs stay byte-identical to a run without forensics.
    A containment failure that escapes the leg is captured with its
    exception as the bundle's reason and propagates.
    """
    if matrix and kinds:
        raise ValueError("matrix sweeps every fault class; drop kinds")
    mode = "quick" if quick else "full"
    rounds = _SCALE[mode]
    if kinds:
        selected = [FaultKind(k) for k in kinds]
    elif matrix:
        selected = list(ALL_FAULT_KINDS)
    else:
        selected = list(HEADLINE_KINDS)

    bundles: Dict[FaultKind, str] = {}
    if postmortem_dir is not None:
        bundles = {kind: postmortem_mod.bundle_path(
            postmortem_dir, f"chaos-{kind.value}-snic-s{seed}")
            for kind in selected}

    def forensics(kind: FaultKind) -> Dict[str, object]:
        return {
            "bundle": bundles[kind],
            "spec": _crash_spec(seed) if kind is FaultKind.NF_CRASH else None,
            "note": {"kind": "FaultInjected",
                     "message": f"{kind.value} injected into tenant "
                                f"{FAULTY} (seed {seed})"}}

    legs = run_differential(
        selected, functools.partial(_leg, seed=seed, rounds=rounds),
        forensics=forensics if bundles else None)
    kinds_report: Dict[str, Dict[str, Any]] = {}
    reasons: List[str] = []
    for kind in sorted(legs, key=lambda k: k.value):
        entry: Dict[str, Any] = {}
        kinds_report[kind.value] = entry
        for label, ((clean, _, _), (faulted, info, cross_wait)) \
                in legs[kind].items():
            disruption = {key: faulted[key] - clean[key]
                          for key in sorted(clean)}
            entry[label] = {
                "clean": {key: clean[key] for key in sorted(clean)},
                "faulted": {key: faulted[key] for key in sorted(faulted)},
                "disruption": disruption,
                "disruption_total": float(
                    sum(abs(value) for value in disruption.values())),
                "cross_tenant_wait_ns": cross_wait,
                "info": {key: info[key] for key in sorted(info)},
            }
        snic_side, commodity_side = entry["snic"], entry["commodity"]
        if snic_side["disruption_total"] != 0.0:
            reasons.append(
                f"S-NIC co-tenant disrupted under {kind.value} "
                f"(disruption_total={snic_side['disruption_total']:.6g})")
        if snic_side["cross_tenant_wait_ns"] != 0.0:
            reasons.append(
                f"S-NIC cross-tenant attributed wait under {kind.value} "
                f"({snic_side['cross_tenant_wait_ns']:.6g} ns)")
        if commodity_side["disruption_total"] == 0.0:
            reasons.append(
                f"commodity co-tenant shows no disruption under "
                f"{kind.value} — the §3.3 fate-sharing baseline did not "
                f"reproduce")
    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "seed": int(seed),
        "mode": mode,
        "matrix": bool(matrix),
        "tenants": {"victim": VICTIM, "faulty": FAULTY},
        # run_differential runs every leg under IsoSan.
        "isosan_active": True,
        "kinds": kinds_report,
        "verdict": {"pass": not reasons, "reasons": reasons},
    }
    if postmortem_dir is not None:
        report["postmortem"] = {"bundles": sorted(
            path.rsplit("/", 1)[-1] for path in bundles.values())}

    return report


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def format_report_text(report: Dict[str, object]) -> str:
    lines: List[str] = []
    verdict = report["verdict"]
    lines.append("S-NIC chaos blast-radius report")
    lines.append(f"  seed={report['seed']}  mode={report['mode']}  "
                 f"isosan={'on' if report.get('isosan_active') else 'off'}")
    lines.append("")
    header = (f"  {'fault class':<16} {'commodity disrupt':>18} "
              f"{'snic disrupt':>13} {'snic x-wait ns':>15}  blast radius")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for kind_name in sorted(report["kinds"]):
        entry = report["kinds"][kind_name]
        commodity_total = entry["commodity"]["disruption_total"]
        snic_total = entry["snic"]["disruption_total"]
        snic_cross = entry["snic"]["cross_tenant_wait_ns"]
        contained = snic_total == 0.0 and snic_cross == 0.0
        radius = ("tenant" if contained and commodity_total != 0.0
                  else "DEVICE" if not contained else "none?")
        lines.append(f"  {kind_name:<16} {commodity_total:>18.6g} "
                     f"{snic_total:>13.6g} {snic_cross:>15.6g}  {radius}")
    lines.append("")
    if verdict["pass"]:
        lines.append("  VERDICT: PASS — every fault's blast radius is the "
                     "faulty tenant on S-NIC, the device on commodity")
    else:
        lines.append("  VERDICT: FAIL")
        for reason in verdict["reasons"]:
            lines.append(f"    - {reason}")
    return "\n".join(lines) + "\n"


def format_report_markdown(report: Dict[str, object]) -> str:
    lines: List[str] = []
    verdict = report["verdict"]
    lines.append("# S-NIC chaos blast-radius report")
    lines.append("")
    lines.append(f"- seed: `{report['seed']}`  mode: `{report['mode']}`  "
                 f"IsoSan: `{'on' if report.get('isosan_active') else 'off'}`")
    lines.append(f"- verdict: "
                 f"**{'PASS' if verdict['pass'] else 'FAIL'}**")
    lines.append("")
    lines.append("| fault class | commodity disruption | S-NIC disruption "
                 "| S-NIC cross-tenant wait (ns) |")
    lines.append("|---|---:|---:|---:|")
    for kind_name in sorted(report["kinds"]):
        entry = report["kinds"][kind_name]
        lines.append(
            f"| `{kind_name}` "
            f"| {entry['commodity']['disruption_total']:.6g} "
            f"| {entry['snic']['disruption_total']:.6g} "
            f"| {entry['snic']['cross_tenant_wait_ns']:.6g} |")
    if verdict["reasons"]:
        lines.append("")
        lines.append("## Failures")
        lines.append("")
        for reason in verdict["reasons"]:
            lines.append(f"- {reason}")
    return "\n".join(lines) + "\n"


_FORMATTERS = {
    "text": format_report_text,
    "markdown": format_report_markdown,
    "json": format_json,
}


def main(argv: Optional[Sequence[str]] = None,
         stream: Optional[IO[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Deterministic fault injection with blast-radius "
                    "accounting: commodity fate-sharing vs S-NIC "
                    "containment, per fault class.")
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-plan seed (same seed => byte-identical "
                             "report)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke)")
    select = parser.add_mutually_exclusive_group()
    select.add_argument("--matrix", action="store_true",
                        help="sweep the full fault taxonomy instead of the "
                             "headline kinds")
    select.add_argument("--kind", action="append", dest="kinds",
                        choices=[k.value for k in ALL_FAULT_KINDS],
                        help="run only this fault class (repeatable)")
    parser.add_argument("--format", choices=sorted(_FORMATTERS),
                        default="text")
    parser.add_argument("-o", "--out", default=None,
                        help="also write the rendered report to this file")
    parser.add_argument("--postmortem-dir", default=None,
                        help="write one POSTMORTEM_*.json forensics "
                             "bundle per faulted S-NIC leg to this "
                             "directory (inspect with `repro postmortem`)")
    args = parser.parse_args(argv)
    repeated = sorted({k for k in args.kinds or () if args.kinds.count(k) > 1})
    if repeated:
        parser.error(f"repeated --kind {repeated}; each runs once")
    report = run_chaos(seed=args.seed, quick=args.quick,
                       matrix=args.matrix, kinds=args.kinds,
                       postmortem_dir=args.postmortem_dir)
    code = emit_report(_FORMATTERS[args.format](report),
                       ok=report["verdict"]["pass"], out=args.out,
                       stream=stream, label="chaos report")
    if args.postmortem_dir is not None:
        names = report["postmortem"]["bundles"]  # type: ignore[index]
        (stream if stream is not None else sys.stdout).write(
            f"{len(names)} post-mortem bundle(s) written to "
            f"{args.postmortem_dir}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
