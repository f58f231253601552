"""A differential non-interference harness for S-NIC.

The paper's central guarantee (§2, §4): a function's ISA-visible *and*
microarchitecturally-observable state is independent of everything other
tenants do.  This module turns that into an executable property:

    Build two identical S-NICs, each with a victim and an attacker.
    On system A the attacker runs an arbitrary program drawn from its
    legal API; on system B it stays idle.  Run the *same* victim
    observation program on both and compare every observation bit.

``check_noninterference`` drives randomized attacker programs through
this experiment; any observation mismatch is returned as a violation.
The property-based test suite runs it under hypothesis, and it doubles
as a regression harness: if a future change to the simulator introduces
shared mutable state between tenants, this harness finds it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.nic_os import NICOS
from repro.core.snic import NFConfig, SNIC
from repro.core.virtual_nic import VirtualNIC
from repro.core.vpp import VPPConfig
from repro.hw.accelerator import AcceleratorKind
from repro.net.packet import Packet
from repro.net.rules import MatchRule, Prefix

MB = 1024 * 1024

#: The attacker's legal repertoire: everything its virtual NIC offers.
ATTACKER_OPS = ("bus", "cache", "memory", "accelerate", "packets")

#: The victim's cache probe: one line in each of the first 16 L2 sets.
PROBE_LINES = 16


@dataclass
class AttackerProgram:
    """A deterministic sequence of legal attacker actions."""

    steps: List[Tuple[str, int]]

    @classmethod
    def random(cls, n_steps: int, seed: int) -> "AttackerProgram":
        rng = random.Random(seed)
        steps = [
            (rng.choice(ATTACKER_OPS), rng.randrange(1, 1 << 16))
            for _ in range(n_steps)
        ]
        return cls(steps=steps)

    def run(self, snic: SNIC, attacker: VirtualNIC) -> None:
        for op, magnitude in self.steps:
            if op == "bus":
                attacker.bus_transfer(magnitude, now_ns=float(magnitude))
            elif op == "cache":
                # Prime one probe set with a set's worth of the
                # attacker's own lines (tags the victim never uses).
                config = snic.l2.config
                probe_set = magnitude % PROBE_LINES
                for way in range(1, config.ways + 1):
                    line = probe_set + way * config.n_sets
                    snic.l2.access(line * config.line_bytes,
                                   owner=attacker.nf_id)
            elif op == "memory":
                offset = magnitude % (attacker.memory_bytes - 64)
                attacker.write(offset, b"A" * 32)
            elif op == "accelerate":
                attacker.accelerate(
                    AcceleratorKind.ZIP, magnitude % 4096,
                    issue_ns=float(magnitude),
                )
            elif op == "packets":
                snic.rx_port.wire_arrival(
                    Packet.make(
                        "66.0.0.1", "77.0.0.1",
                        src_port=magnitude % 65536, dst_port=9999,
                    )
                )
                snic.process_ingress()


def _build_system(key_seed: int) -> Tuple[SNIC, NICOS, VirtualNIC, VirtualNIC]:
    snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=key_seed)
    nic_os = NICOS(snic)
    victim = nic_os.NF_create(
        NFConfig(
            name="victim", core_ids=(0,), memory_bytes=4 * MB,
            initial_image=b"victim-image",
            vpp=VPPConfig(rules=[MatchRule(dst_prefix=Prefix.parse("10.0.0.0/8"))]),
            accelerators=((AcceleratorKind.DPI, 1),),
        )
    )
    attacker = nic_os.NF_create(
        NFConfig(
            name="attacker", core_ids=(1,), memory_bytes=4 * MB,
            vpp=VPPConfig(rules=[MatchRule(dst_prefix=Prefix.parse("77.0.0.0/8"))]),
            accelerators=((AcceleratorKind.ZIP, 1),),
        )
    )
    return snic, nic_os, victim, attacker


def warm_victim(snic: SNIC, victim: VirtualNIC) -> None:
    """Load the victim's probe lines, so the cache holds victim state
    for the attacker to disturb before anything is observed."""
    line_bytes = snic.l2.config.line_bytes
    for i in range(PROBE_LINES):
        snic.l2.access(i * line_bytes, owner=victim.nf_id)


def observe_victim(snic: SNIC, victim: VirtualNIC) -> Dict[str, object]:
    """Everything the victim can measure about its own virtual NIC.

    Interleaves work with measurement the way a real probe would:
    memory contents, cache hit patterns, bus completion times,
    accelerator latencies, and the packets it receives.
    """
    observations: Dict[str, object] = {}
    # ISA-visible state: its own memory.
    victim.write(0x2000, b"victim-data")
    observations["memory"] = victim.read(0x2000, 16)
    # Cache behaviour over a fixed probe pattern.
    line_bytes = snic.l2.config.line_bytes
    pattern = []
    for i in range(64):
        pattern.append(snic.l2.access((i % PROBE_LINES) * line_bytes,
                                      owner=victim.nf_id))
    observations["cache_pattern"] = tuple(pattern)
    # Bus latencies at fixed issue instants.
    observations["bus_latencies"] = tuple(
        victim.bus_transfer(1024, now_ns=t) for t in (0.0, 1e4, 1e6)
    )
    # Accelerator latency.
    request = victim.accelerate(AcceleratorKind.DPI, 1500, issue_ns=1e6)
    observations["accel_latency"] = request.latency_ns
    # Packet delivery: one probe packet addressed to the victim.
    snic.rx_port.wire_arrival(
        Packet.make("9.9.9.9", "10.1.2.3", src_port=1, dst_port=2)
    )
    snic.process_ingress()
    received = victim.receive_all()
    observations["packets"] = tuple(p.to_bytes() for p in received)
    # Attestation evidence (the hash, not the randomized signature).
    observations["state_hash"] = victim.state_hash
    return observations


@dataclass
class Violation:
    """One observable difference between the two runs."""

    seed: int
    key: str
    with_attacker: object
    without_attacker: object


def run_experiment(program: AttackerProgram, key_seed: int = 7) -> List[Violation]:
    """Run one attacker program; returns observation mismatches.

    The victim warms its probe lines on both systems before the
    attacker runs, so the attacker acts on live victim state.
    """
    active_snic, _, active_victim, active_attacker = _build_system(key_seed)
    warm_victim(active_snic, active_victim)
    program.run(active_snic, active_attacker)
    with_attacker = observe_victim(active_snic, active_victim)

    quiet_snic, _, quiet_victim, _ = _build_system(key_seed)
    warm_victim(quiet_snic, quiet_victim)
    without_attacker = observe_victim(quiet_snic, quiet_victim)

    violations = []
    for key in without_attacker:
        if with_attacker[key] != without_attacker[key]:
            violations.append(
                Violation(
                    seed=key_seed,
                    key=key,
                    with_attacker=with_attacker[key],
                    without_attacker=without_attacker[key],
                )
            )
    return violations


def check_noninterference(
    n_trials: int = 10, steps_per_trial: int = 40, seed: int = 0
) -> List[Violation]:
    """Randomized sweep; returns every violation found (ideally none)."""
    violations: List[Violation] = []
    for trial in range(n_trials):
        program = AttackerProgram.random(steps_per_trial, seed=seed + trial)
        violations.extend(run_experiment(program, key_seed=7))
    return violations
