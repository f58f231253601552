"""Materialize a :class:`~repro.scenario.spec.ScenarioSpec` into a live
simulation, with context-managed setup/teardown.

The builder follows the openshift-python-wrapper resource idiom: a
:class:`BuiltScenario` exposes ``deploy()`` / ``clean_up()`` and acts as
a context manager, so every experiment — CLI command, matrix cell, or
test — gets the same lifecycle::

    with build_scenario(spec) as built:
        outputs = built.drive(quick=True)
    # NFs destroyed, injector uninstalled, observer clocks released.

What a deployment consists of:

* the device — an :class:`~repro.core.snic.SNIC` plus
  :class:`~repro.core.nic_os.NICOS`, with one launched NF per tenant
  (cores assigned sequentially, VPP match rules from ``dst_prefix``,
  optional DPI accelerator units);
* the event-driven :class:`~repro.core.runtime.SNICRuntime` with each
  tenant's behavioural NF (:mod:`repro.nf`) attached;
* a deterministic packet list from the :class:`TrafficSpec` (seeded
  Zipf or round-robin tenant selection);
* an optional :class:`~repro.faults.plan.FaultPlan` +
  :class:`~repro.faults.inject.FaultInjector` from the
  :class:`FaultSpec` — created at deploy time but installed only inside
  :meth:`BuiltScenario.drive`, strictly inside any active IsoSan scope
  (both wrap the same class methods and must unwind LIFO);
* a :class:`ContentionRig` for the shared-microarchitecture phase: an
  IO bus under the spec's arbitration policy, per-tenant DMA banks
  (shared engine iff commodity), and a DRAM channel (partitioned iff
  S-NIC).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.bench import bind_clock
from repro.scenario.spec import (
    ArbiterSpec,
    NFSpec,
    ScenarioSpec,
    SpecError,
)

MB = 1024 * 1024

#: DMA staging window per tenant in the contention rig.
_DMA_WINDOW = 64 * 1024

#: Simulated length of one contention round (phase 2 of
#: :meth:`BuiltScenario.drive`).
ROUND_PERIOD_NS = 8_000.0


def contention_rounds(quick: bool) -> int:
    """How many contention rounds :meth:`BuiltScenario.drive` runs."""
    return 8 if quick else 16


class ScenarioBuildError(SpecError):
    """The spec was valid but could not be materialized."""


def make_packets(spec: ScenarioSpec) -> List[object]:
    """The deterministic offered load described by ``spec.traffic``.

    A pure function of the spec (seeded from ``sub_seed("traffic")``),
    so every caller computes the exact same packet list independently.
    """
    from repro.net.packet import Packet

    traffic = spec.traffic
    order = list(spec.tenants)
    if not order or not traffic.n_packets:
        return []
    rng = random.Random(spec.sub_seed("traffic"))
    weights = [1.0 / (rank + 1) ** traffic.zipf_skew
               for rank in range(len(order))]
    packets: List[object] = []
    for i in range(traffic.n_packets):
        if traffic.pattern == "zipf":
            tenant = rng.choices(order, weights=weights)[0]
        else:
            tenant = order[i % len(order)]
        packet = Packet.make(
            "10.0.0.1", tenant.dst_ip(), src_port=4_000 + i,
            dst_port=80, payload=b"x" * traffic.payload_bytes)
        packet.arrival_ns = (i + 1) * traffic.arrival_period_ns
        packets.append(packet)
    return packets


# ----------------------------------------------------------------------
# Component factories
# ----------------------------------------------------------------------


def make_nf(spec: NFSpec, seed: int):
    """Instantiate the behavioural NF a tenant runs."""
    from repro.nf import (
        Backend,
        DIR24_8,
        DPIEngine,
        Firewall,
        MaglevLoadBalancer,
        Monitor,
        NAT,
        make_emerging_threats_rules,
        make_random_routes,
        make_snort_like_patterns,
    )

    if spec.kind == "firewall":
        return Firewall(make_emerging_threats_rules(
            int(spec.param("rules", 64))))
    if spec.kind == "monitor":
        return Monitor()
    if spec.kind == "dpi":
        return DPIEngine(make_snort_like_patterns(
            int(spec.param("patterns", 64)), seed=seed))
    if spec.kind == "nat":
        return NAT(external_ip=str(spec.param("external_ip",
                                              "198.51.100.1")))
    if spec.kind == "lb":
        n_backends = int(spec.param("backends", 4))
        return MaglevLoadBalancer([
            Backend(name=f"be{i}", ip=f"192.168.1.{i + 1}")
            for i in range(n_backends)])
    if spec.kind == "lpm":
        table = DIR24_8()
        for prefix, next_hop in make_random_routes(
                int(spec.param("routes", 256)), seed=seed):
            table.add_route(prefix, next_hop)
        return table
    raise ScenarioBuildError(f"no factory for NF kind {spec.kind!r}")


def make_arbiter(spec: ArbiterSpec, domains: List[int]):
    """Instantiate the bus arbitration policy for the contention rig."""
    from repro.hw.bus import (
        DeficitRoundRobinArbiter,
        FCFSArbiter,
        TemporalPartitioningArbiter,
    )

    if spec.policy == "fcfs":
        return FCFSArbiter(bandwidth_bytes_per_ns=spec.bandwidth_bytes_per_ns)
    if spec.policy == "temporal":
        return TemporalPartitioningArbiter(
            domains=list(domains),
            bandwidth_bytes_per_ns=spec.bandwidth_bytes_per_ns,
            epoch_ns=spec.epoch_ns, dead_time_ns=spec.dead_time_ns)
    if spec.policy == "drr":
        return DeficitRoundRobinArbiter(
            bandwidth_bytes_per_ns=spec.bandwidth_bytes_per_ns,
            quantum_bytes=spec.quantum_bytes)
    raise ScenarioBuildError(f"no arbiter for policy {spec.policy!r}")


@dataclass
class ContentionRig:
    """The shared microarchitecture the drive phase contends on."""

    bus: object            # IOBus under the spec's arbitration policy
    dma: object            # DMAController, shared engine iff commodity
    dram: object           # DRAMChannel, partitioned iff S-NIC
    nic_mem: object
    host_mem: object
    bank_by_tenant: Dict[int, object]
    host_addr_by_tenant: Dict[int, int]
    nic_addr_by_tenant: Dict[int, int]


def _build_rig(spec: ScenarioSpec, nf_ids: List[int]) -> ContentionRig:
    from repro.hw.bus import IOBus
    from repro.hw.dma import DMAController, DMAWindow
    from repro.hw.dram import DRAMChannel
    from repro.hw.memory import HostMemory, PhysicalMemory

    commodity = spec.topology.nic_model == "commodity"
    n = max(1, len(nf_ids))
    nic_mem = PhysicalMemory((n + 1) * _DMA_WINDOW)
    host_mem = HostMemory(2 * (n + 1) * _DMA_WINDOW)
    controller = DMAController(n, shared_engine=commodity)
    bank_by_tenant: Dict[int, object] = {}
    host_addrs: Dict[int, int] = {}
    nic_addrs: Dict[int, int] = {}
    for index, nf_id in enumerate(nf_ids):
        bank = controller.banks[index]
        bank.configure(
            nf_id,
            nic_window=DMAWindow(index * _DMA_WINDOW, _DMA_WINDOW),
            host_window=DMAWindow((n + index) * _DMA_WINDOW, _DMA_WINDOW))
        bank_by_tenant[nf_id] = bank
        host_addrs[nf_id] = (n + index) * _DMA_WINDOW
        nic_addrs[nf_id] = index * _DMA_WINDOW
    dram = DRAMChannel()
    if not commodity and nf_ids:
        dram.partition(list(nf_ids))
    bus = IOBus(make_arbiter(spec.topology.arbiter, nf_ids))
    return ContentionRig(bus=bus, dma=controller, dram=dram,
                         nic_mem=nic_mem, host_mem=host_mem,
                         bank_by_tenant=bank_by_tenant,
                         host_addr_by_tenant=host_addrs,
                         nic_addr_by_tenant=nic_addrs)


# ----------------------------------------------------------------------
# The deployment
# ----------------------------------------------------------------------


class BuiltScenario:
    """A deployed scenario: device, runtime, traffic, fault machinery.

    Lifecycle mirrors openshift-python-wrapper resources: ``deploy()``
    materializes, ``clean_up()`` tears down (idempotent, exception-safe),
    and the context-manager form pairs them even when the drive phase
    raises mid-run.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.snic = None
        self.nic_os = None
        self.runtime = None
        self.host_memory = None
        self.host_window = None
        #: tenant name -> nf_id, in spec order.
        self.tenants: Dict[str, int] = {}
        self.vnics: Dict[str, object] = {}
        self.fault_plan = None
        self.injector = None
        self._rig: Optional[ContentionRig] = None
        self._deployed = False

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "BuiltScenario":
        return self.deploy()

    def __exit__(self, *exc) -> None:
        self.clean_up()

    def deploy(self) -> "BuiltScenario":
        if self._deployed:
            return self
        from repro.core import NFConfig, NICOS, SNIC
        from repro.core.runtime import SNICRuntime
        from repro.core.vpp import VPPConfig
        from repro.hw.accelerator import AcceleratorKind
        from repro.hw.dma import DMAWindow
        from repro.hw.memory import HostMemory
        from repro.net.rules import MatchRule, Prefix

        topo = self.spec.topology
        l2_config = None
        if topo.l2_ways is not None:
            from repro.hw.cache import CacheConfig

            # Fixed 256-set geometry: size must divide into sets evenly,
            # so widening associativity scales the size with it.
            l2_config = CacheConfig(size_bytes=topo.l2_ways * 64 * 256,
                                    line_bytes=64, ways=topo.l2_ways)
        self.snic = SNIC(n_cores=topo.n_cores,
                         dram_bytes=topo.dram_mb * MB,
                         l2_config=l2_config,
                         key_seed=topo.key_seed)
        self.nic_os = NICOS(self.snic)
        self.host_memory = HostMemory(2 * MB)
        self.host_window = DMAWindow(base=0, size=1 * MB)
        # Runtime first: launch-time audit records should land on
        # the cell's simulated clock, not internal ticks.
        self.runtime = SNICRuntime(
            self.snic,
            poll_interval_ns=topo.poll_interval_ns,
            service_ns_per_packet=topo.service_ns_per_packet)
        sim = self.runtime.sim
        bind_clock(lambda: sim.now_ns)
        next_core = 0
        for tenant in self.spec.tenants:
            core_ids = tuple(range(next_core, next_core + tenant.cores))
            next_core += tenant.cores
            accelerators = ((AcceleratorKind.DPI, tenant.dpi_units),) \
                if tenant.dpi_units else ()
            vnic = self.nic_os.NF_create(NFConfig(
                name=tenant.name,
                core_ids=core_ids,
                memory_bytes=tenant.memory_mb * MB,
                vpp=VPPConfig(rules=[MatchRule(
                    dst_prefix=Prefix.parse(tenant.dst_prefix))]),
                accelerators=accelerators,
                host_window=self.host_window,
            ))
            self.tenants[tenant.name] = vnic.nf_id
            self.vnics[tenant.name] = vnic
        for tenant in self.spec.tenants:
            self.runtime.attach(
                self.tenants[tenant.name],
                make_nf(tenant.nf, seed=self.spec.sub_seed(
                    "nf", tenant.name)))
        self.fault_plan = self._build_fault_plan()
        if self.fault_plan is not None:
            from repro.faults.inject import FaultInjector

            self.injector = FaultInjector(self.fault_plan)
        self._deployed = True
        return self

    def clean_up(self) -> None:
        """Tear everything down; safe to call twice or after a crash."""
        if self.injector is not None and self.injector.installed:
            self.injector.uninstall()
        if self.nic_os is not None:
            for nf_id in list(self.tenants.values()):
                if nf_id in self.snic.live_functions:
                    self.nic_os.NF_destroy(nf_id)
        bind_clock(None)
        self._deployed = False

    # -- derived pieces ------------------------------------------------

    @property
    def nf_ids(self) -> List[int]:
        return list(self.tenants.values())

    def rig(self) -> ContentionRig:
        if self._rig is None:
            self._rig = _build_rig(self.spec, self.nf_ids)
        return self._rig

    def _build_fault_plan(self):
        fault = self.spec.fault
        if fault is None:
            return None
        from repro.faults.plan import FaultKind, FaultPlan

        if not self.tenants:
            raise ScenarioBuildError(
                f"scenario {self.spec.name!r} declares a fault but has "
                f"no tenants to target")
        target_name = fault.tenant or self.spec.tenants[-1].name
        target_id = self.tenants[target_name]
        kind = FaultKind(fault.kind)
        params = {k: v for k, v in fault.params}
        if kind.value.startswith("wire_") and "dst_ip" not in params:
            # Wire faults interpose the RX port; scoping them to the
            # faulty tenant needs its concrete destination address.
            params["dst_ip"] = self.spec.tenant(target_name).dst_ip()
        plan = FaultPlan(self.spec.seed)
        plan.burst(kind, target_id, start_ns=fault.start_ns,
                   count=fault.count, period_ns=fault.period_ns, **params)
        return plan

    def make_packets(self) -> List[object]:
        """The deterministic offered load described by the TrafficSpec."""
        return make_packets(self.spec)

    # -- the default driver --------------------------------------------

    def drive(self, quick: bool = False,
              rounds: Optional[int] = None,
              on_round: Optional[Callable[[int, float], None]] = None,
              ) -> Dict[str, object]:
        """Run the generic two-phase experiment and return its outputs.

        Phase 1 pushes the spec's traffic through the event-driven
        runtime; phase 2 contends on the rig's shared bus / DMA / DRAM.
        The fault injector (if any) is installed around both phases —
        inside whatever IsoSan scope the caller opened.  Faults that
        escalate to uncatchable errors (an NF crash without a
        supervisor) propagate to the caller; the context manager still
        tears the deployment down.

        ``on_round`` is invoked after each phase-2 contention round with
        ``(round_index, round_end_ns)`` — phase 2 advances hand-stepped
        timestamps outside the event kernel, so observers that window on
        sim time (the SLO aggregator) rotate through this hook.
        """
        if not self._deployed:
            raise ScenarioBuildError("deploy() the scenario before driving it")
        from repro.obs.interference import get_accountant

        rounds = rounds if rounds is not None else contention_rounds(quick)
        victim_id = self.nf_ids[0] if self.nf_ids else None
        outputs: Dict[str, object] = {
            "scenario": self.spec.name,
            "seed": self.spec.seed,
            "nic_model": self.spec.topology.nic_model,
            "arbiter": self.spec.topology.arbiter.policy,
            "tenant_count": len(self.tenants),
            "fault_class": self.spec.fault.kind if self.spec.fault
            else "none",
        }
        if self.injector is not None:
            self.injector.install()
        try:
            if self.injector is not None:
                targets = {}
                from repro.faults.plan import FaultKind

                if self.fault_plan.events_for(FaultKind.NIC_OS_STALL):
                    targets[FaultKind.NIC_OS_STALL] = self.nic_os
                self.injector.arm_all(targets or None)
            stats = self._drive_packets()
            contention = self._drive_contention(rounds, on_round=on_round)
        finally:
            if self.injector is not None:
                self.injector.uninstall()
        per_tenant: Dict[str, int] = {name: 0 for name in self.tenants}
        by_id = {nf_id: name for name, nf_id in self.tenants.items()}
        for timing in stats.timings:
            per_tenant[by_id[timing.nf_id]] += 1
        p50, p99 = stats.latency_percentiles(50, 99)
        outputs.update({
            "packets_completed": stats.completed,
            "packets_dropped": stats.dropped,
            "latency_p50_ns": p50,
            "latency_p99_ns": p99,
            "per_tenant_completed": per_tenant,
            "victim_completed": per_tenant.get(by_id.get(victim_id), 0)
            if victim_id is not None else 0,
        })
        outputs.update(contention)
        outputs["cross_tenant_wait_ns"] = \
            get_accountant().cross_tenant_wait()
        outputs["faults_injected"] = (
            len(self.injector.records) if self.injector is not None else 0)
        return outputs

    def _drive_packets(self):
        packets = self.make_packets()
        if packets:
            self.runtime.inject(packets)
            return self.runtime.run()
        return self.runtime.stats

    def _drive_contention(self, rounds: int,
                          on_round: Optional[Callable[[int, float], None]]
                          = None) -> Dict[str, object]:
        """Phase 2: every tenant hits the shared bus, DMA, and DRAM.

        The victim (first tenant) is the measurement point; the last
        tenant is the one any FaultSpec targets, so this phase is where
        bus babble and DMA errors turn into (or fail to turn into)
        cross-tenant disruption, mirroring the chaos workloads.
        """
        from repro.core.errors import RecoveryExhausted
        from repro.faults.recovery import BackoffPolicy, retry_dma

        rig = self.rig()
        nf_ids = self.nf_ids
        if not nf_ids:
            return {"bus_wait_ns_victim": 0.0, "dma_wait_ns_victim": 0.0,
                    "dram_wait_ns_victim": 0.0, "dma_retries_exhausted": 0}
        victim = nf_ids[0]
        bus_bytes, dma_bytes, dram_bytes = 2_048, 4_096, 4_096
        policy = BackoffPolicy(attempts=3, base_ns=500)
        bus_wait = dma_wait = dram_wait = 0.0
        exhausted = 0
        for round_index in range(rounds):
            base = round_index * ROUND_PERIOD_NS
            # Reverse order on the bus: the last tenant (the FaultSpec's
            # default target) issues first, so a babble burst is already
            # queued when the victim's transfer arrives.
            for offset, nf_id in enumerate(reversed(nf_ids)):
                issue = base + offset * 200.0
                latency = rig.bus.transfer(nf_id, bus_bytes, issue)
                if nf_id == victim:
                    bus_wait += latency - bus_bytes / rig.bus.arbiter.bandwidth
            for offset, nf_id in enumerate(nf_ids):
                issue = base + 3_000.0 + offset * 200.0
                bank = rig.bank_by_tenant[nf_id]
                host_addr = rig.host_addr_by_tenant[nf_id]
                nic_addr = rig.nic_addr_by_tenant[nf_id]

                def op(done: int, now: float, b=bank, h=host_addr,
                       n=nic_addr) -> Optional[float]:
                    return b.to_nic(rig.host_mem, rig.nic_mem, h + done,
                                    n + done, dma_bytes - done, now_ns=now)

                try:
                    done_at = retry_dma(op, policy=policy, now_ns=issue,
                                        tenant=nf_id)
                except RecoveryExhausted:
                    exhausted += 1
                    done_at = None
                if nf_id == victim and done_at is not None:
                    dma_wait += done_at - issue
            for offset, nf_id in enumerate(nf_ids):
                issue = base + 6_000.0 + offset * 200.0
                done_at = rig.dram.access(nf_id, dram_bytes, issue)
                if nf_id == victim:
                    dram_wait += done_at - issue
            if on_round is not None:
                on_round(round_index, base + ROUND_PERIOD_NS)
        return {
            "bus_wait_ns_victim": float(bus_wait),
            "dma_wait_ns_victim": float(dma_wait),
            "dram_wait_ns_victim": float(dram_wait),
            "dma_retries_exhausted": exhausted,
        }


def build_scenario(spec: ScenarioSpec) -> BuiltScenario:
    """An undeployed :class:`BuiltScenario`; use as a context manager."""
    return BuiltScenario(spec)
