#!/usr/bin/env python3
"""Function chaining across isolated virtual NICs (§4.8 extension).

Commodity NICs chain NFs by sharing packet buffers — which is exactly
what the §3.3 packet-corruption attack abuses.  S-NIC's extension keeps
every function in its own virtual NIC and moves packets between chained
functions through trusted cross-VPP hardware, so "information leakage
between two communicating VPPs [is restricted] to just the information
revealed via overt traffic timings and packet content."

This example builds the classic NAT → firewall → monitor chain and
shows (a) packets flowing down the chain, (b) stage isolation holding.

Run:  python examples/function_chain.py
"""

from repro.core import (
    FunctionChain,
    IsolationViolation,
    NFConfig,
    NICOS,
    SNIC,
    VirtualNIC,
)
from repro.core.vpp import VPPConfig
from repro.net.packet import Packet, ip_to_str
from repro.net.rules import MatchRule, PortRange, RuleAction, RuleTable
from repro.nf import Firewall, Monitor, NAT

MB = 1024 * 1024


def main() -> None:
    snic = SNIC(n_cores=4, dram_bytes=256 * MB, key_seed=71)
    nic_os = NICOS(snic)

    # Stage 1 receives from the wire; stages 2-3 receive via the chain.
    stage_configs = [
        NFConfig(name="chain/nat", core_ids=(0,), memory_bytes=8 * MB,
                 vpp=VPPConfig(rules=[MatchRule()])),
        NFConfig(name="chain/fw", core_ids=(1,), memory_bytes=8 * MB),
        NFConfig(name="chain/mon", core_ids=(2,), memory_bytes=8 * MB),
    ]
    vnics = [nic_os.NF_create(cfg) for cfg in stage_configs]
    chain = FunctionChain(snic, [v.nf_id for v in vnics])

    nat = NAT("100.0.0.1")
    firewall = Firewall(
        RuleTable([MatchRule(dst_ports=PortRange(23, 23),
                             action=RuleAction.DROP)])
    )
    monitor = Monitor()
    stages = {
        vnics[0].nf_id: nat,
        vnics[1].nf_id: firewall,
        vnics[2].nf_id: monitor,
    }

    # Traffic: web flows plus one telnet flow the firewall will kill.
    for i in range(6):
        snic.rx_port.wire_arrival(
            Packet.make("10.0.0.5", "8.8.8.8", src_port=40_000 + i, dst_port=80)
        )
    snic.rx_port.wire_arrival(
        Packet.make("10.0.0.5", "8.8.8.8", src_port=50_000, dst_port=23)
    )
    snic.process_ingress()

    emitted = chain.run(stages, rounds=4)
    print(f"chain emitted {emitted} packets "
          f"(7 in; firewall dropped {firewall.stats.dropped})")
    print(f"  NAT translated {nat.translations}; "
          f"monitor saw {monitor.distinct_flows} flows post-firewall")
    owner, frame = snic.tx_port.transmitted[0]
    sample = Packet.from_bytes(frame)
    print(f"  wire packet src (NATted): {ip_to_str(sample.ip.src_ip)}")

    # Isolation holds across chain membership: stage 2 cannot touch
    # stage 1's memory even though they exchange packets.
    vnics[0].write(0x500, b"nat-bindings")
    target = snic.record(vnics[0].nf_id).extent_base + 0x500
    try:
        leaked = vnics[1].read(target, 12)
    except IsolationViolation:
        leaked = None
    if leaked == b"nat-bindings":
        print("  ISOLATION BROKEN (should never print)")
    else:
        print("  chained stages remain memory-isolated: stage 2 cannot "
              "name stage 1's physical pages (only overt packet content "
              "crosses the link)")

    for link in chain.links:
        print(f"  link {link.upstream_nf}->{link.downstream_nf}: "
              f"{link.stats.frames_moved} frames, "
              f"{link.stats.bytes_moved} bytes, "
              f"{link.stats.drops_backpressure} backpressure drops")


if __name__ == "__main__":
    main()
