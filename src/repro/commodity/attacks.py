"""The concrete attacks of §3.3, as replayable scenarios.

Each attack is written twice over the same logic:

* against a commodity-NIC model, where it **succeeds** (reproducing the
  paper's proof-of-concept results); and
* against an S-NIC (callers pass an S-NIC adapter), where the very same
  attacker actions raise :class:`~repro.hw.memory.AccessFault` /
  fail to find anything — reported as :class:`AttackBlocked`.

The three attacks:

1. **Packet corruption (LiquidIO, SE-S)** — a malicious function uses
   ``xkphys`` to scan the shared buffer allocator's metadata, finds the
   buffers staged for a MazuNAT victim, and corrupts the packet headers,
   disrupting the NAT's translations.
2. **DPI ruleset stealing (LiquidIO)** — the malicious function walks
   the same metadata to locate a victim's DPI ruleset in DRAM and
   exfiltrates it.
3. **IO bus denial-of-service (Agilio)** — a tight loop of semaphore
   decrements saturates the unarbitrated internal bus until the NIC
   hard-crashes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.commodity.agilio import AgilioNIC
from repro.commodity.liquidio import (
    ALLOCATOR_METADATA_BASE,
    ALLOCATOR_RECORD_BYTES,
    LiquidIONIC,
)
from repro.hw.bus import BusCrashed
from repro.hw.memory import AccessFault
from repro.net.packet import Packet
from repro.nf.nat import NAT


class AttackBlocked(Exception):
    """The attack could not be carried out (the S-NIC outcome)."""


@dataclass
class AttackResult:
    """Outcome of one attack scenario."""

    name: str
    succeeded: bool
    details: str = ""
    evidence: object = None


# ----------------------------------------------------------------------
# Attack 1: packet corruption
# ----------------------------------------------------------------------

def _scan_allocator_metadata(
    xkphys_read, max_records: int = 4096
) -> List[Tuple[int, int, int]]:
    """Walk the shared allocator's records via raw physical reads.

    This is the attacker primitive both LiquidIO attacks share: iterate
    (owner, addr, size) records at the well-known metadata base until an
    empty record terminates the table.
    """
    records: List[Tuple[int, int, int]] = []
    for i in range(max_records):
        raw = xkphys_read(
            ALLOCATOR_METADATA_BASE + i * ALLOCATOR_RECORD_BYTES,
            ALLOCATOR_RECORD_BYTES,
        )
        owner, addr, size = struct.unpack("<QQQ", raw)
        if addr == 0:
            break
        records.append((owner, addr, size))
    return records


def packet_corruption_attack(
    nic: LiquidIONIC,
    victim_nf_id: int,
    attacker_core_id: int,
) -> AttackResult:
    """Corrupt the victim's staged packet headers through xkphys.

    Mirrors §3.3: "The malicious function leveraged xkphys to scan the
    metadata structures belonging to the buffer allocator ... then
    corrupted the packet headers in those buffers, disrupting the
    intended NAT translations."
    """
    attacker = nic.cores[attacker_core_id]
    try:
        records = _scan_allocator_metadata(attacker.xkphys_read)
        victim_buffers = [
            (addr, size) for owner, addr, size in records if owner == victim_nf_id
        ]
        if not victim_buffers:
            return AttackResult(
                name="packet-corruption",
                succeeded=False,
                details="no victim buffers discovered in allocator metadata",
            )
        corrupted = 0
        for addr, _size in victim_buffers:
            # Flip bytes inside the IPv4 source address field
            # (Ethernet 14 bytes + IPv4 src at offset 12).
            target = addr + 14 + 12
            original = attacker.xkphys_read(target, 4)
            attacker.xkphys_write(target, bytes(b ^ 0xFF for b in original))
            corrupted += 1
        return AttackResult(
            name="packet-corruption",
            succeeded=True,
            details=f"corrupted headers in {corrupted} victim buffers",
            evidence=victim_buffers,
        )
    except AccessFault as fault:
        raise AttackBlocked(f"packet-corruption blocked: {fault}") from fault


def run_packet_corruption_experiment(
    n_packets: int = 16,
) -> Tuple[AttackResult, int, int]:
    """End-to-end §3.3 experiment: MazuNAT victim + malicious co-tenant.

    Returns (attack result, translations without attack, translations
    with the attack).  With the attack, the rewritten source addresses no
    longer fall in the NAT's internal prefix, so translations collapse.
    """
    def stage(nic: LiquidIONIC, nat: NAT) -> int:
        installed = nic.install_function(nat, core_id=0)
        for i in range(n_packets):
            packet = Packet.make(
                src_ip=f"10.0.0.{i + 1}",
                dst_ip="8.8.8.8",
                src_port=40000 + i,
                dst_port=80,
            )
            nic.deliver_packet(installed.nf_id, packet)
        return installed.nf_id

    # Baseline run: no attacker.
    clean_nic = LiquidIONIC(mode="SE-S", n_cores=2)
    clean_nat = NAT("100.0.0.1")
    nf_id = stage(clean_nic, clean_nat)
    clean_nic.run_function_on_buffers(nf_id)
    clean_translations = clean_nat.translations

    # Attacked run: malicious function on core 1 corrupts buffers first.
    nic = LiquidIONIC(mode="SE-S", n_cores=2)
    nat = NAT("100.0.0.1")
    nf_id = stage(nic, nat)
    result = packet_corruption_attack(nic, victim_nf_id=nf_id, attacker_core_id=1)
    nic.run_function_on_buffers(nf_id)
    return result, clean_translations, nat.translations


# ----------------------------------------------------------------------
# Attack 2: DPI ruleset stealing
# ----------------------------------------------------------------------

def dpi_ruleset_stealing_attack(
    nic: LiquidIONIC,
    victim_nf_id: int,
    attacker_core_id: int,
) -> AttackResult:
    """Exfiltrate another function's DPI ruleset via xkphys.

    "We wrote a malicious function which uses xkphys to steal the
    ruleset belonging to another function; to locate the ruleset, the
    malicious function iterated through the metadata of the buffer
    allocator."
    """
    attacker = nic.cores[attacker_core_id]
    try:
        records = _scan_allocator_metadata(attacker.xkphys_read)
        stolen: List[bytes] = []
        for owner, addr, size in records:
            if owner == victim_nf_id:
                stolen.append(attacker.xkphys_read(addr, size))
        if not stolen:
            return AttackResult(
                name="dpi-ruleset-stealing",
                succeeded=False,
                details="victim stored no discoverable data",
            )
        return AttackResult(
            name="dpi-ruleset-stealing",
            succeeded=True,
            details=f"exfiltrated {sum(len(s) for s in stolen)} bytes "
            f"across {len(stolen)} buffers",
            evidence=stolen,
        )
    except AccessFault as fault:
        raise AttackBlocked(f"dpi-ruleset-stealing blocked: {fault}") from fault


def run_dpi_stealing_experiment(
    ruleset: Optional[bytes] = None,
) -> Tuple[AttackResult, bytes]:
    """End-to-end stealing experiment; returns (result, original ruleset)."""
    if ruleset is None:
        from repro.nf.dpi import make_snort_like_patterns

        ruleset = b"\n".join(make_snort_like_patterns(n_patterns=200))
    nic = LiquidIONIC(mode="SE-S", n_cores=2)
    from repro.nf.monitor import Monitor

    victim = nic.install_function(Monitor(), core_id=0)
    nic.store_function_data(victim.nf_id, ruleset)
    result = dpi_ruleset_stealing_attack(
        nic, victim_nf_id=victim.nf_id, attacker_core_id=1
    )
    return result, ruleset


# ----------------------------------------------------------------------
# Attack 2b: traffic stealing via switching-rule tampering
# ----------------------------------------------------------------------

def traffic_stealing_attack(
    nic: LiquidIONIC,
    victim_nf_id: int,
    attacker_nf_id: int,
    attacker_core_id: int,
) -> AttackResult:
    """Rewrite the in-DRAM switching rules to hijack victim traffic.

    §3.2: "an NF can directly manipulate the packet scheduler" — the
    steering state is management-configured but lives in shared DRAM, so
    a malicious function rewrites every rule pointing at the victim to
    point at itself.  (On S-NIC the rules live in denylisted memory and
    are covered by the launch hash, so tampering is both impossible for
    co-tenants and attestation-detectable for the OS.)
    """
    from repro.commodity.liquidio import SWITCH_RULES_BASE, SWITCH_RULE_BYTES

    attacker = nic.cores[attacker_core_id]
    try:
        hijacked = 0
        for index in range(64):
            base = SWITCH_RULES_BASE + index * SWITCH_RULE_BYTES
            raw = attacker.xkphys_read(base, SWITCH_RULE_BYTES)
            dst_ip, dst_mask, nf_id = struct.unpack("<IIQ", raw)
            if nf_id == 0:
                break
            if nf_id == victim_nf_id:
                attacker.xkphys_write(
                    base, struct.pack("<IIQ", dst_ip, dst_mask, attacker_nf_id)
                )
                hijacked += 1
        return AttackResult(
            name="traffic-stealing",
            succeeded=hijacked > 0,
            details=f"redirected {hijacked} switching rule(s) to the attacker",
        )
    except AccessFault as fault:
        raise AttackBlocked(f"traffic-stealing blocked: {fault}") from fault


def run_traffic_stealing_experiment() -> Tuple[AttackResult, int, int]:
    """End-to-end: victim's flows end up in the attacker's buffers.

    Returns (result, packets the victim received, packets the attacker
    received) after the rule rewrite.
    """
    from repro.nf.monitor import Monitor

    nic = LiquidIONIC(mode="SE-S", n_cores=2)
    victim = nic.install_function(Monitor(), core_id=0)
    attacker = nic.install_function(Monitor(), core_id=1)
    nic.configure_switch_rule(0, dst_ip=0x0A000000, dst_mask=0xFF000000,
                              nf_id=victim.nf_id)
    result = traffic_stealing_attack(
        nic, victim_nf_id=victim.nf_id,
        attacker_nf_id=attacker.nf_id, attacker_core_id=1,
    )
    for i in range(10):
        nic.receive_from_wire(
            Packet.make("99.0.0.1", f"10.0.0.{i + 1}", src_port=1, dst_port=2)
        )
    return result, len(victim.packet_buffers), len(attacker.packet_buffers)


# ----------------------------------------------------------------------
# Attack 3: IO bus denial of service
# ----------------------------------------------------------------------

def bus_dos_attack(
    nic: AgilioNIC,
    attacker_id: int = 666,
    max_iterations: int = 200_000,
) -> AttackResult:
    """Saturate the internal bus until the NIC hard-crashes.

    "The function saturated the bus and caused the NIC to hard-crash,
    requiring a power cycle to recover."  On S-NIC, temporal
    partitioning confines the attacker to its own epochs, so the loop
    just runs slowly and nothing else is affected.
    """
    try:
        nic.semaphore_decrement_loop(attacker_id, iterations=max_iterations)
    except BusCrashed as crash:
        return AttackResult(
            name="bus-dos",
            succeeded=True,
            details=f"NIC hard-crashed: {crash}",
        )
    return AttackResult(
        name="bus-dos",
        succeeded=False,
        details=f"bus survived {max_iterations} back-to-back operations",
    )
