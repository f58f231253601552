#!/usr/bin/env python3
"""Chaos scenario: crash a network function, recover it, spare the victim.

Two tenants share an S-NIC.  A seeded :class:`~repro.faults.FaultPlan`
schedules an ``NF_CRASH`` against one of them mid-traffic; the
:class:`~repro.faults.FaultInjector` turns that plan entry into a real
``FatalFunctionError`` out of the faulty function's next runtime poll;
and the :class:`~repro.faults.NFSupervisor` runs the §4.6 recovery
sequence — ``nf_teardown`` scrubs the crashed function's extent, the
scrub is *verified* from page metadata, and the same config relaunches
as a fresh identity.  The co-tenant keeps processing packets throughout:
the blast radius is the faulty tenant, not the device.

Run:  python examples/chaos_recovery.py
"""

from repro.analysis.isosan import sanitized
from repro.core import NFConfig, NICOS, SNIC
from repro.core.errors import FatalFunctionError
from repro.core.runtime import SNICRuntime
from repro.core.vpp import VPPConfig
from repro.faults import FaultInjector, FaultKind, FaultPlan, NFSupervisor
from repro.net.packet import Packet
from repro.net.rules import MatchRule, Prefix
from repro.nf import Monitor

MB = 1024 * 1024


def main() -> None:
    snic = SNIC(n_cores=4, dram_bytes=64 * MB, key_seed=7)
    nic_os = NICOS(snic)

    victim = nic_os.NF_create(NFConfig(
        name="steady-monitor", core_ids=(0,), memory_bytes=4 * MB,
        vpp=VPPConfig(rules=[MatchRule(dst_prefix=Prefix.parse("20.0.0.0/8"))]),
    ))
    faulty = nic_os.NF_create(NFConfig(
        name="crashy-monitor", core_ids=(1,), memory_bytes=4 * MB,
        vpp=VPPConfig(rules=[MatchRule(dst_prefix=Prefix.parse("30.0.0.0/8"))]),
    ))
    print(f"victim NF {victim.nf_id} ({victim.name}), "
          f"faulty NF {faulty.nf_id} ({faulty.name})")

    runtime = SNICRuntime(snic)
    runtime.attach(victim.nf_id, Monitor())
    runtime.attach(faulty.nf_id, Monitor())

    packets = []
    for i in range(24):
        for dst, offset in (("20.0.0.9", 0), ("30.0.0.9", 200)):
            packet = Packet.make("10.0.0.1", dst, src_port=4_000 + i,
                                 dst_port=80, payload=b"x" * 64)
            packet.arrival_ns = (i + 1) * 400 + offset
            packets.append(packet)
    runtime.inject(packets)

    # The fault plan: one crash against the faulty tenant at t = 4 µs.
    plan = FaultPlan(seed=42)
    plan.at(4_000, FaultKind.NF_CRASH, tenant=faulty.nf_id)
    supervisor = NFSupervisor(nic_os, runtime)

    with sanitized():
        injector = FaultInjector(plan).install()
        try:
            injector.arm_all()
            crashes = 0
            while True:
                try:
                    runtime.run()
                    break
                except FatalFunctionError:
                    crashes += 1
                    crashed = injector.records[-1].tenant
                    print(f"NF {crashed} crashed at "
                          f"{runtime.sim.now_ns:.0f} ns — recovering")
                    vnic = supervisor.on_crash(crashed)
                    print(f"  scrub verified; relaunched as NF {vnic.nf_id} "
                          f"({vnic.name})")
        finally:
            injector.uninstall()

    by_nf = {}
    for timing in runtime.stats.timings:
        by_nf.setdefault(timing.nf_id, []).append(timing)
    print(f"\ncrashes: {crashes}, restarts: {len(supervisor.restarts)}")
    for nf_id in sorted(by_nf):
        timings = by_nf[nf_id]
        worst = max(t.departure_ns - t.arrival_ns for t in timings)
        print(f"  NF {nf_id}: {len(timings)} packets completed, "
              f"worst latency {worst:.0f} ns")
    victim_done = len(by_nf.get(victim.nf_id, []))
    assert victim_done == 24, f"victim lost packets: {victim_done}/24"
    print("\nvictim completed every packet — the blast radius was the "
          "faulty tenant, not the device")


if __name__ == "__main__":
    main()
