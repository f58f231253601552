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

Everything runs inside an IsoSan ``sanitized()`` scope, and all
randomness flows from the one ``--seed`` through :class:`FaultPlan`, so
the same seed produces a byte-identical report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, IO, List, Optional, Sequence, Tuple

from repro.faults.inject import FaultInjector, PlanDriver
from repro.faults.plan import ALL_FAULT_KINDS, FaultKind, FaultPlan
from repro.faults.recovery import (
    BackoffPolicy,
    CommodityRecovery,
    NFSupervisor,
    Watchdog,
    retry_dma,
)
from repro.core.errors import (
    IsolationViolation,
    RecoveryExhausted,
    WatchdogTimeout,
)
from repro.obs import auditlog as auditlog_mod
from repro.obs import flight as flight_mod
from repro.obs import metrics as metrics_mod
from repro.obs import postmortem as postmortem_mod
from repro.obs.interference import blame_matrix, cross_tenant_wait_ns
from repro.obs.metrics import get_registry

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
_Workload = Callable[[bool, bool, int, int], Tuple[_Observation, _Info]]


# ----------------------------------------------------------------------
# Workloads: one per fault kind.
#
# Signature: (snic, inject, seed, rounds) -> (victim observation, info).
# Each builds its own FaultPlan(seed) so clean and faulted runs share
# nothing but the seed, and installs its FaultInjector strictly inside
# the caller's sanitized() scope (IsoSan outermost, injector inner —
# both wrap some of the same methods and must unwind LIFO).
# ----------------------------------------------------------------------


def _bus_babble_workload(snic: bool, inject: bool, seed: int,
                         rounds: int) -> Tuple[_Observation, _Info]:
    """§3.3's Agilio bus DoS: the faulty tenant babbles on the IO bus."""
    from repro.hw.bus import FCFSArbiter, TemporalPartitioningArbiter

    plan = FaultPlan(seed)
    if inject:
        plan.burst(FaultKind.BUS_BABBLE, FAULTY, start_ns=0, count=rounds,
                   period_ns=8_000, amplify=16, babble_bytes=8_192)
    if snic:
        arbiter = TemporalPartitioningArbiter(
            domains=[VICTIM, FAULTY], bandwidth_bytes_per_ns=12.8,
            epoch_ns=1_000.0, dead_time_ns=100.0)
    else:
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=12.8)
    injector = FaultInjector(plan).install() if inject else None
    latency = 0.0
    try:
        if injector is not None:
            injector.arm_all()
        for i in range(rounds):
            t = i * 8_000.0
            arbiter.request(FAULTY, 48_000, t)
            issue = t + 100.0
            latency += arbiter.request(VICTIM, 1_500, issue) - issue
    finally:
        if injector is not None:
            injector.uninstall()
    obs = {"completed": float(rounds), "latency_ns": latency}
    info = {"injected": float(len(injector.records))} if injector else {}
    return obs, info


def _dram_bit_flip_workload(snic: bool, inject: bool, seed: int,
                            rounds: int) -> Tuple[_Observation, _Info]:
    """Bit-flips in DRAM plus the ECC scrub traffic they trigger.

    Commodity: one shared arena (flips land anywhere, including the
    victim's pages) and one shared channel (the faulty tenant's scrub
    traffic queues ahead of the victim).  S-NIC: flips are confined to
    the faulty function's extent and the channel is partitioned.
    """
    from repro.hw.dram import DRAMChannel
    from repro.hw.memory import PhysicalMemory

    arena = PhysicalMemory(256 * 1024)
    half = arena.size_bytes // 2  # victim: [0, half); faulty: [half, end)
    channel = DRAMChannel()
    if snic:
        channel.partition([VICTIM, FAULTY])
    plan = FaultPlan(seed)
    if inject:
        if snic:
            plan.at(0, FaultKind.DRAM_BIT_FLIP, tenant=FAULTY,
                    base=half, size=half, n_flips=32)
        else:
            plan.at(0, FaultKind.DRAM_BIT_FLIP, tenant=FAULTY,
                    base=0, size=arena.size_bytes, n_flips=32)
    injector = FaultInjector(plan).install() if inject else None
    latency = 0.0
    victim_flips = 0
    try:
        if injector is not None:
            injector.arm_all({FaultKind.DRAM_BIT_FLIP: arena})
        for i in range(rounds):
            t = i * 16_000.0
            channel.access(FAULTY, 64_000, t)
            issue = t + 10.0
            latency += channel.access(VICTIM, 64, issue) - issue
        if injector is not None:
            victim_flips = sum(1 for addr, _ in injector.flips
                               if addr < half)
    finally:
        if injector is not None:
            injector.uninstall()
    obs = {"completed": float(rounds), "latency_ns": latency,
           "corrupted": float(victim_flips)}
    info = {"injected": float(len(injector.records)),
            "flips": float(len(injector.flips))} if injector else {}
    return obs, info


def _dma_workload_factory(kind: FaultKind) -> _Workload:
    """DMA transfer failures, retried under bounded backoff.

    The faulty tenant's failed transfer is re-driven by ``retry_dma``;
    on the commodity *shared* engine every retry occupies the engine
    again and the victim's mid-period transfer queues behind it.  S-NIC
    gives each bank its own engine (§4.2), so retries are invisible.
    """

    def run(snic: bool, inject: bool, seed: int,
            rounds: int) -> Tuple[_Observation, _Info]:
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
        plan = FaultPlan(seed)
        if inject:
            plan.burst(kind, FAULTY, start_ns=0, count=rounds,
                       period_ns=16_000, fraction=0.5)
        injector = FaultInjector(plan).install() if inject else None
        latency = 0.0
        exhausted = 0
        try:
            if injector is not None:
                injector.arm_all()
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
        finally:
            if injector is not None:
                injector.uninstall()
        obs = {"completed": float(rounds), "latency_ns": latency}
        info = ({"injected": float(len(injector.records)),
                 "retries_exhausted": float(exhausted)}
                if injector else {})
        return obs, info

    return run


def _wire_workload_factory(kind: FaultKind) -> _Workload:
    """Wire faults through a real RX port.

    Commodity: one shared wire-facing firmware path — faults cannot be
    scoped to a tenant (they hit whatever arrives next) and all staged
    packets share one FIFO service loop.  S-NIC: per-VPP staging scopes
    each fault to the faulty tenant's destinations, and each tenant's
    pipeline has an independent service cursor (§4.4).
    """

    def run(snic: bool, inject: bool, seed: int,
            rounds: int) -> Tuple[_Observation, _Info]:
        from repro.hw.packet_io import RXPort
        from repro.net.packet import Packet, ip_to_str

        payload = b"x" * 64
        victim_dst, faulty_dst = "20.0.0.9", "30.0.0.9"
        plan = FaultPlan(seed)
        n_events = max(2, rounds // 4)
        if inject:
            if snic:
                plan.burst(kind, FAULTY, start_ns=0, count=n_events,
                           period_ns=2_000, dst_ip=faulty_dst)
            else:
                plan.burst(kind, None, start_ns=0, count=n_events,
                           period_ns=2_000)
        port = RXPort()
        injector = FaultInjector(plan).install() if inject else None
        try:
            if injector is not None:
                injector.arm_all()
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
        finally:
            if injector is not None:
                injector.uninstall()

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
        info = {"injected": float(len(injector.records))} if injector else {}
        return obs, info

    return run


def _core_hang_workload(snic: bool, inject: bool, seed: int,
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
    plan = FaultPlan(seed)
    if inject:
        # Commodity has no per-tenant binding: tenant None is the
        # injector's wildcard, so the one shared core hangs for all.
        plan.at(hang_at, FaultKind.CORE_HANG,
                tenant=FAULTY if snic else None)
    sim = Simulator()
    injector = FaultInjector(plan).install() if inject else None
    victim_instructions = 0.0
    info: _Info = {}
    try:
        driver = PlanDriver(plan, injector) if injector is not None else None
        watchdog: Optional[Watchdog] = None
        recovery: Optional[CommodityRecovery] = None
        if snic:
            victim_core = ProgrammableCore(0, PhysicalMemory(64 * 1024))
            victim_core.bind(VICTIM)
            faulty_core = ProgrammableCore(1, PhysicalMemory(64 * 1024))
            faulty_core.bind(FAULTY)
            if injector is not None:
                watchdog = Watchdog(sim)
                watchdog.arm("core-faulty", 3 * period_ns,
                             on_timeout=lambda exc: injector.clear_hang(
                                 FAULTY),
                             tenant=FAULTY)
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
                        watchdog.arm(
                            "core-faulty", 3 * period_ns,
                            on_timeout=lambda exc: injector.clear_hang(
                                FAULTY),
                            tenant=FAULTY)
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
        if injector is not None:
            info["injected"] = float(len(injector.records))
            if watchdog is not None:
                info["watchdog_timeouts"] = float(len(watchdog.timeouts))
            if recovery is not None:
                info["power_cycles"] = float(len(recovery.cycles))
    finally:
        if injector is not None:
            injector.uninstall()
    return {"instructions": victim_instructions}, info


def _accel_timeout_workload(snic: bool, inject: bool, seed: int,
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

    plan = FaultPlan(seed)
    if inject:
        plan.burst(FaultKind.ACCEL_TIMEOUT, FAULTY, start_ns=0,
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
    injector = FaultInjector(plan).install() if inject else None
    latency = 0.0
    try:
        if injector is not None:
            injector.arm_all()
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
    finally:
        if injector is not None:
            injector.uninstall()
    obs = {"completed": float(rounds), "latency_ns": latency}
    info = {"injected": float(len(injector.records))} if injector else {}
    return obs, info


def _nf_crash_workload(snic: bool, inject: bool, seed: int,
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
        return _nf_crash_snic(inject, seed, rounds)
    return _nf_crash_commodity(inject, seed, rounds)


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


def _nf_crash_snic(inject: bool, seed: int,
                   rounds: int) -> Tuple[_Observation, _Info]:
    from repro.core.errors import FatalFunctionError
    from repro.net.packet import Packet
    from repro.scenario.build import build_scenario

    with build_scenario(_crash_spec(seed)) as built:
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
        plan = FaultPlan(seed)
        if inject:
            plan.at(4_000, FaultKind.NF_CRASH, tenant=faulty_id)
        supervisor = NFSupervisor(nic_os, runtime)
        injector = FaultInjector(plan).install() if inject else None
        try:
            if injector is not None:
                injector.arm_all()
            # The injected FatalFunctionError surfaces out of the drain,
            # the supervisor restarts the crashed identity, and the
            # drain resumes.  The clean run takes the exact same loop.
            while True:
                try:
                    runtime.run()
                    break
                except FatalFunctionError:
                    supervisor.on_crash(injector.records[-1].tenant)
        finally:
            if injector is not None:
                injector.uninstall()
        victim_timings = [t for t in runtime.stats.timings
                          if t.nf_id == victim_id]
    obs = {
        "completed": float(len(victim_timings)),
        "latency_ns": float(sum(t.latency_ns for t in victim_timings)),
        "dropped": float(rounds - len(victim_timings)),
    }
    info = ({"injected": float(len(injector.records)),
             "restarts": float(len(supervisor.restarts))}
            if injector else {})
    return obs, info


def _nf_crash_commodity(inject: bool, seed: int,
                        rounds: int) -> Tuple[_Observation, _Info]:
    plan = FaultPlan(seed)
    crash_at = 4_000
    if inject:
        plan.at(crash_at, FaultKind.NF_CRASH, tenant=FAULTY)
    recovery = CommodityRecovery(reboot_ns=50_000)
    pending_crashes = plan.events_for(FaultKind.NF_CRASH) if inject else []
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
    info = ({"injected": float(len(plan.events_for(FaultKind.NF_CRASH))
                               - len(pending_crashes)),
             "power_cycles": float(len(recovery.cycles))}
            if inject else {})
    return obs, info


def _nic_os_stall_workload(snic: bool, inject: bool, seed: int,
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
    plan = FaultPlan(seed)
    if inject:
        plan.at(stall_round * period_ns, FaultKind.NIC_OS_STALL)
    sim = Simulator()
    injector = FaultInjector(plan).install() if inject else None
    latency = completed = mgmt_failures = 0.0
    try:
        driver = PlanDriver(plan, injector,
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
    finally:
        if injector is not None:
            injector.uninstall()
    obs = {"completed": completed, "latency_ns": latency}
    info = ({"injected": float(len(injector.records)),
             "mgmt_failures": mgmt_failures,
             "watchdog_timeouts": float(len(watchdog.timeouts))}
            if injector else {})
    return obs, info


_WORKLOADS: Dict[FaultKind, _Workload] = {
    FaultKind.DRAM_BIT_FLIP: _dram_bit_flip_workload,
    FaultKind.DMA_ERROR: _dma_workload_factory(FaultKind.DMA_ERROR),
    FaultKind.DMA_PARTIAL: _dma_workload_factory(FaultKind.DMA_PARTIAL),
    FaultKind.WIRE_DROP: _wire_workload_factory(FaultKind.WIRE_DROP),
    FaultKind.WIRE_CORRUPT: _wire_workload_factory(FaultKind.WIRE_CORRUPT),
    FaultKind.WIRE_DUPLICATE:
        _wire_workload_factory(FaultKind.WIRE_DUPLICATE),
    FaultKind.WIRE_REORDER: _wire_workload_factory(FaultKind.WIRE_REORDER),
    FaultKind.CORE_HANG: _core_hang_workload,
    FaultKind.ACCEL_TIMEOUT: _accel_timeout_workload,
    FaultKind.NF_CRASH: _nf_crash_workload,
    FaultKind.NIC_OS_STALL: _nic_os_stall_workload,
    FaultKind.BUS_BABBLE: _bus_babble_workload,
}


# ----------------------------------------------------------------------
# The differential experiment
# ----------------------------------------------------------------------


def _chaos_bundle_name(kind: FaultKind, seed: int) -> str:
    return f"chaos-{kind.value}-snic-s{seed}"


def _write_chaos_bundle(directory: str, kind: FaultKind, seed: int,
                        reason: object) -> str:
    """Assemble a forensics bundle from the just-finished faulted S-NIC
    leg's live state (must run *before* the next metrics reset)."""
    spec = _crash_spec(seed) if kind is FaultKind.NF_CRASH else None
    bundle = postmortem_mod.build_bundle(reason=reason, spec=spec)
    return postmortem_mod.write_bundle(
        bundle,
        postmortem_mod.bundle_path(directory, _chaos_bundle_name(kind, seed)))


def _differential(kind: FaultKind, seed: int, rounds: int,
                  postmortem_dir: Optional[str] = None
                  ) -> Tuple[Dict[str, object], List[str]]:
    workload = _WORKLOADS[kind]
    entry: Dict[str, object] = {}
    bundles: List[str] = []
    for label, snic in (("commodity", False), ("snic", True)):
        metrics_mod.reset()
        clean, _ = workload(snic, False, seed, rounds)
        metrics_mod.reset()
        # Forensics are armed only around the faulted S-NIC leg: the
        # injected fault is the incident under investigation, and the
        # clean/commodity legs must stay byte-identical to a run with
        # no --postmortem-dir at all.
        forensic = postmortem_dir is not None and snic
        if forensic:
            flight_mod.reset()
            auditlog_mod.reset()
            auditlog_mod.enable_audit_log()
            flight_mod.enable_flight_recording()
        try:
            faulted, info = workload(snic, True, seed, rounds)
        except (IsolationViolation, WatchdogTimeout,
                RecoveryExhausted) as exc:
            # A genuine containment failure: capture the crime scene
            # before the exception unwinds the harness.
            if forensic:
                bundles.append(_write_chaos_bundle(
                    postmortem_dir, kind, seed, exc))
                flight_mod.reset()
                auditlog_mod.reset()
            raise
        matrix = blame_matrix(get_registry())
        disruption = {key: faulted[key] - clean[key]
                      for key in sorted(clean)}
        entry[label] = {
            "clean": {key: clean[key] for key in sorted(clean)},
            "faulted": {key: faulted[key] for key in sorted(faulted)},
            "disruption": disruption,
            "disruption_total": float(
                sum(abs(value) for value in disruption.values())),
            "cross_tenant_wait_ns": float(cross_tenant_wait_ns(matrix)),
            "info": {key: info[key] for key in sorted(info)},
        }
        if forensic:
            bundles.append(_write_chaos_bundle(
                postmortem_dir, kind, seed,
                {"kind": "FaultInjected",
                 "message": f"{kind.value} injected into tenant {FAULTY} "
                            f"(seed {seed})"}))
            flight_mod.reset()
            auditlog_mod.reset()
    return entry, bundles


def run_chaos(seed: int = 0, quick: bool = False, matrix: bool = False,
              kinds: Optional[Sequence[str]] = None,
              postmortem_dir: Optional[str] = None) -> Dict[str, object]:
    """Run the blast-radius experiment; returns the report dict.

    ``matrix`` sweeps the full fault taxonomy; the default covers the
    headline kinds.  Every workload runs inside one IsoSan
    ``sanitized()`` scope with the injector installed strictly inside
    it, and all randomness flows from ``seed``.

    ``postmortem_dir`` arms the forensic layer around every faulted
    S-NIC leg and drops one deterministic ``POSTMORTEM_*.json`` bundle
    per fault class there (plus a crash bundle if a containment failure
    actually escapes) — same seed, byte-identical bundles.
    """
    from repro.analysis.isosan import get_isosan, sanitized

    mode = "quick" if quick else "full"
    rounds = _SCALE[mode]
    if kinds:
        selected = [FaultKind(k) for k in kinds]
    elif matrix:
        selected = list(ALL_FAULT_KINDS)
    else:
        selected = list(HEADLINE_KINDS)

    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "seed": int(seed),
        "mode": mode,
        "matrix": bool(matrix),
        "tenants": {"victim": VICTIM, "faulty": FAULTY},
        "kinds": {},
    }
    bundles: List[str] = []
    with sanitized():
        report["isosan_active"] = get_isosan().installed
        for kind in selected:
            entry, kind_bundles = _differential(
                kind, seed, rounds, postmortem_dir=postmortem_dir)
            report["kinds"][kind.value] = entry
            bundles.extend(kind_bundles)
    metrics_mod.reset()
    if postmortem_dir is not None:
        report["postmortem"] = {
            "bundles": sorted(path.rsplit("/", 1)[-1]
                              for path in bundles)}

    reasons: List[str] = []
    for kind_name in sorted(report["kinds"]):
        entry = report["kinds"][kind_name]
        snic_side = entry["snic"]
        commodity_side = entry["commodity"]
        if snic_side["disruption_total"] != 0.0:
            reasons.append(
                f"S-NIC co-tenant disrupted under {kind_name} "
                f"(disruption_total="
                f"{snic_side['disruption_total']:.6g})")
        if snic_side["cross_tenant_wait_ns"] != 0.0:
            reasons.append(
                f"S-NIC cross-tenant attributed wait under {kind_name} "
                f"({snic_side['cross_tenant_wait_ns']:.6g} ns)")
        if commodity_side["disruption_total"] == 0.0:
            reasons.append(
                f"commodity co-tenant shows no disruption under "
                f"{kind_name} — the §3.3 fate-sharing baseline did not "
                f"reproduce")
    report["verdict"] = {"pass": not reasons, "reasons": reasons}
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


def format_report_json(report: Dict[str, object]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


_FORMATTERS = {
    "text": format_report_text,
    "markdown": format_report_markdown,
    "json": format_report_json,
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
    parser.add_argument("--matrix", action="store_true",
                        help="sweep the full fault taxonomy instead of the "
                             "headline kinds")
    parser.add_argument("--kind", action="append", dest="kinds",
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
    out = stream if stream is not None else sys.stdout

    report = run_chaos(seed=args.seed, quick=args.quick,
                       matrix=args.matrix, kinds=args.kinds,
                       postmortem_dir=args.postmortem_dir)
    rendered = _FORMATTERS[args.format](report)
    out.write(rendered)
    if args.postmortem_dir is not None:
        names = report.get("postmortem", {}).get("bundles", [])
        out.write(f"{len(names)} post-mortem bundle(s) written to "
                  f"{args.postmortem_dir}\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    return 0 if report["verdict"]["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
