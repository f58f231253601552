"""Declarative scenario specifications.

Every experiment in the repo — the co-tenancy trace demo, the chaos
differentials, the matrix sweep cells — is describable as *which NIC
model*, *which tenants running which NFs*, *what traffic*, *which fault
(if any)*, and *which bus arbitration policy*.  This module gives that
description a frozen, validated dataclass form with a lossless
dict/JSON round-trip, so scenarios can be authored in Python, loaded
from JSON-shaped dicts, or generated axis-by-axis by the matrix runner
(SimBricks' declaratively-joined-components idea applied to one NIC).

Determinism is part of the schema, not a convention: a
:class:`ScenarioSpec` *requires* an explicit ``seed`` and every derived
random stream flows from it (``derive_seed`` gives stable per-purpose
sub-seeds).  The ``seed`` field has no default, so a spec built
without one raises ``TypeError``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.slo import TenantSLO

#: NF kinds the builder knows how to materialize (repro.nf classes).
NF_KINDS = ("firewall", "monitor", "dpi", "nat", "lb", "lpm")

#: NIC models the builder can stand up.
NIC_MODELS = ("commodity", "snic")

#: Bus arbitration policies (repro.hw.bus arbiters).
ARBITER_POLICIES = ("fcfs", "temporal", "drr")

_Params = Tuple[Tuple[str, object], ...]


class SpecError(ValueError):
    """A scenario spec failed validation."""


def _as_params(value) -> _Params:
    """Canonicalize a params mapping/pair-sequence into sorted tuples."""
    if value is None:
        return ()
    items = value.items() if isinstance(value, dict) else value
    return tuple(sorted((str(k), v) for k, v in items))


def _params_dict(params: _Params) -> Dict[str, object]:
    return {k: v for k, v in params}


def derive_seed(seed: int, *parts: object) -> int:
    """A stable 32-bit sub-seed for ``(seed, *parts)``.

    Uses sha256 rather than ``hash()`` so the derivation survives
    process restarts (PYTHONHASHSEED) — same inputs, same sub-seed,
    forever.
    """
    text = ":".join([str(int(seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ----------------------------------------------------------------------
# Leaf specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NFSpec:
    """Which network function a tenant runs, plus its knobs."""

    kind: str
    params: _Params = ()

    def __post_init__(self) -> None:
        if self.kind not in NF_KINDS:
            raise SpecError(f"unknown NF kind {self.kind!r}; "
                            f"expected one of {NF_KINDS}")
        object.__setattr__(self, "params", _as_params(self.params))

    def param(self, name: str, default=None):
        return _params_dict(self.params).get(name, default)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "params": _params_dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NFSpec":
        return cls(kind=data["kind"], params=_as_params(data.get("params")))


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a named NF bound to cores, memory, and a VPP match.

    ``slo`` optionally attaches the tenant's service-level objectives
    (:class:`repro.obs.slo.TenantSLO`, or its dict form when loading
    from JSON) — the scorecard CLI judges runs against it.
    """

    name: str
    nf: NFSpec
    dst_prefix: str
    cores: int = 1
    memory_mb: int = 4
    dpi_units: int = 0
    slo: Optional["TenantSLO"] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("tenant name must be non-empty")
        if self.cores < 1:
            raise SpecError(f"tenant {self.name!r}: cores must be >= 1")
        if self.memory_mb < 1:
            raise SpecError(f"tenant {self.name!r}: memory_mb must be >= 1")
        if self.dpi_units < 0:
            raise SpecError(f"tenant {self.name!r}: dpi_units must be >= 0")
        if "/" not in self.dst_prefix:
            raise SpecError(f"tenant {self.name!r}: dst_prefix must be "
                            f"CIDR ('20.0.0.0/8'), got {self.dst_prefix!r}")
        if self.slo is not None:
            # Lazy import (the FaultSpec -> faults.plan precedent): the
            # spec layer only touches repro.obs when SLOs are attached.
            from repro.obs.slo import SLOError, TenantSLO

            if not isinstance(self.slo, TenantSLO):
                try:
                    object.__setattr__(
                        self, "slo", TenantSLO.from_dict(self.slo))
                except (SLOError, KeyError, TypeError) as exc:
                    raise SpecError(f"tenant {self.name!r}: bad slo: "
                                    f"{exc}") from exc

    def dst_ip(self) -> str:
        """A concrete destination address inside this tenant's prefix."""
        octets = self.dst_prefix.split("/")[0].split(".")
        octets[-1] = "9"
        return ".".join(octets)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "nf": self.nf.to_dict(),
            "dst_prefix": self.dst_prefix,
            "cores": self.cores,
            "memory_mb": self.memory_mb,
            "dpi_units": self.dpi_units,
            "slo": self.slo.to_dict() if self.slo is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TenantSpec":
        return cls(
            name=data["name"],
            nf=NFSpec.from_dict(data["nf"]),
            dst_prefix=data["dst_prefix"],
            cores=int(data.get("cores", 1)),
            memory_mb=int(data.get("memory_mb", 4)),
            dpi_units=int(data.get("dpi_units", 0)),
            slo=data.get("slo"),
        )


@dataclass(frozen=True)
class ArbiterSpec:
    """Bus arbitration policy (§4.5's knob, made pluggable)."""

    policy: str = "temporal"
    bandwidth_bytes_per_ns: float = 12.8
    epoch_ns: float = 1000.0
    dead_time_ns: float = 100.0
    quantum_bytes: int = 1600

    def __post_init__(self) -> None:
        if self.policy not in ARBITER_POLICIES:
            raise SpecError(f"unknown arbiter policy {self.policy!r}; "
                            f"expected one of {ARBITER_POLICIES}")
        if self.bandwidth_bytes_per_ns <= 0:
            raise SpecError("arbiter bandwidth must be positive")
        if not 0 <= self.dead_time_ns < self.epoch_ns:
            raise SpecError("dead time must be shorter than the epoch")
        if self.quantum_bytes < 1:
            raise SpecError("quantum_bytes must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "bandwidth_bytes_per_ns": self.bandwidth_bytes_per_ns,
            "epoch_ns": self.epoch_ns,
            "dead_time_ns": self.dead_time_ns,
            "quantum_bytes": self.quantum_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ArbiterSpec":
        return cls(
            policy=data.get("policy", "temporal"),
            bandwidth_bytes_per_ns=float(
                data.get("bandwidth_bytes_per_ns", 12.8)),
            epoch_ns=float(data.get("epoch_ns", 1000.0)),
            dead_time_ns=float(data.get("dead_time_ns", 100.0)),
            quantum_bytes=int(data.get("quantum_bytes", 1600)),
        )


@dataclass(frozen=True)
class TopologySpec:
    """The device under test and its service-rate parameters.

    ``nic_model`` selects the isolation regime for the shared
    microarchitecture (per-bank DMA engines and partitioned DRAM on
    ``snic``; one shared engine/channel on ``commodity``), while
    ``arbiter`` picks the bus arbitration policy orthogonally — that is
    the sweep OSMOSIS motivates.
    """

    nic_model: str = "snic"
    n_cores: int = 4
    dram_mb: int = 128
    key_seed: int = 7
    arbiter: ArbiterSpec = ArbiterSpec()
    poll_interval_ns: int = 2_000
    service_ns_per_packet: int = 600
    #: L2 associativity override.  S-NIC's static way partitioning needs
    #: one way per live NF plus one for the NIC OS, so hundreds-of-tenant
    #: scenarios must widen the default 16-way geometry; ``None`` keeps
    #: the device default.
    l2_ways: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nic_model not in NIC_MODELS:
            raise SpecError(f"unknown nic_model {self.nic_model!r}; "
                            f"expected one of {NIC_MODELS}")
        if self.n_cores < 1:
            raise SpecError("n_cores must be >= 1")
        if self.dram_mb < 1:
            raise SpecError("dram_mb must be >= 1")
        if self.poll_interval_ns < 1 or self.service_ns_per_packet < 1:
            raise SpecError("runtime intervals must be >= 1 ns")
        if self.l2_ways is not None and self.l2_ways < 2:
            raise SpecError("l2_ways must be >= 2 (one way is the OS's)")

    def to_dict(self) -> Dict[str, object]:
        return {
            "nic_model": self.nic_model,
            "n_cores": self.n_cores,
            "dram_mb": self.dram_mb,
            "key_seed": self.key_seed,
            "arbiter": self.arbiter.to_dict(),
            "poll_interval_ns": self.poll_interval_ns,
            "service_ns_per_packet": self.service_ns_per_packet,
            "l2_ways": self.l2_ways,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TopologySpec":
        l2_ways = data.get("l2_ways")
        return cls(
            nic_model=data.get("nic_model", "snic"),
            n_cores=int(data.get("n_cores", 4)),
            dram_mb=int(data.get("dram_mb", 128)),
            key_seed=int(data.get("key_seed", 7)),
            arbiter=ArbiterSpec.from_dict(data.get("arbiter", {})),
            poll_interval_ns=int(data.get("poll_interval_ns", 2_000)),
            service_ns_per_packet=int(
                data.get("service_ns_per_packet", 600)),
            l2_ways=int(l2_ways) if l2_ways is not None else None,
        )


@dataclass(frozen=True)
class TrafficSpec:
    """The synthetic offered load across tenants."""

    n_packets: int = 60
    payload_bytes: int = 64
    arrival_period_ns: int = 800
    pattern: str = "round_robin"
    zipf_skew: float = 1.1

    def __post_init__(self) -> None:
        if self.n_packets < 0:
            raise SpecError("n_packets must be >= 0")
        if self.payload_bytes < 1:
            raise SpecError("payload_bytes must be >= 1")
        if self.arrival_period_ns < 1:
            raise SpecError("arrival_period_ns must be >= 1")
        if self.pattern not in ("round_robin", "zipf"):
            raise SpecError(f"unknown traffic pattern {self.pattern!r}")
        if self.zipf_skew <= 0:
            raise SpecError("zipf_skew must be positive")

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_packets": self.n_packets,
            "payload_bytes": self.payload_bytes,
            "arrival_period_ns": self.arrival_period_ns,
            "pattern": self.pattern,
            "zipf_skew": self.zipf_skew,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrafficSpec":
        return cls(
            n_packets=int(data.get("n_packets", 60)),
            payload_bytes=int(data.get("payload_bytes", 64)),
            arrival_period_ns=int(data.get("arrival_period_ns", 800)),
            pattern=data.get("pattern", "round_robin"),
            zipf_skew=float(data.get("zipf_skew", 1.1)),
        )


@dataclass(frozen=True)
class FaultSpec:
    """An optional deterministic fault burst (repro.faults taxonomy).

    ``tenant`` names the *spec* tenant the fault targets (resolved to an
    ``nf_id`` at build time); ``None`` targets the last tenant.
    """

    kind: str
    tenant: Optional[str] = None
    start_ns: int = 0
    count: int = 4
    period_ns: int = 8_000
    params: _Params = ()

    def __post_init__(self) -> None:
        from repro.faults.plan import ALL_FAULT_KINDS

        known = {k.value for k in ALL_FAULT_KINDS}
        if self.kind not in known:
            raise SpecError(f"unknown fault kind {self.kind!r}; "
                            f"expected one of {sorted(known)}")
        if self.count < 1:
            raise SpecError("fault count must be >= 1")
        if self.period_ns < 1:
            raise SpecError("fault period_ns must be >= 1")
        object.__setattr__(self, "params", _as_params(self.params))

    def param(self, name: str, default=None):
        return _params_dict(self.params).get(name, default)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "tenant": self.tenant,
            "start_ns": self.start_ns,
            "count": self.count,
            "period_ns": self.period_ns,
            "params": _params_dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            tenant=data.get("tenant"),
            start_ns=int(data.get("start_ns", 0)),
            count=int(data.get("count", 4)),
            period_ns=int(data.get("period_ns", 8_000)),
            params=_as_params(data.get("params")),
        )


# ----------------------------------------------------------------------
# The root spec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, replayable experiment description.

    ``seed`` is mandatory by design (it has no default, so leaving it
    out raises ``TypeError``): the matrix runner's same-seed ⇒
    byte-identical contract starts here.
    """

    name: str
    seed: int
    description: str = ""
    tags: Tuple[str, ...] = ()
    topology: TopologySpec = TopologySpec()
    tenants: Tuple[TenantSpec, ...] = ()
    traffic: TrafficSpec = TrafficSpec()
    fault: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("scenario name must be non-empty")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError(f"seed must be an int, got {self.seed!r}")
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(self, "tenants", tuple(self.tenants))
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate tenant names in {self.name!r}")
        total_cores = sum(t.cores for t in self.tenants)
        if total_cores > self.topology.n_cores:
            raise SpecError(
                f"scenario {self.name!r} asks for {total_cores} cores but "
                f"the topology has {self.topology.n_cores}")
        if self.fault is not None and self.fault.tenant is not None \
                and self.fault.tenant not in names:
            raise SpecError(f"fault targets unknown tenant "
                            f"{self.fault.tenant!r}")

    def tenant(self, name: str) -> TenantSpec:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(name)

    def sub_seed(self, *parts: object) -> int:
        """A stable per-purpose sub-seed derived from this spec's seed."""
        return derive_seed(self.seed, self.name, *parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "description": self.description,
            "tags": list(self.tags),
            "topology": self.topology.to_dict(),
            "tenants": [t.to_dict() for t in self.tenants],
            "traffic": self.traffic.to_dict(),
            "fault": self.fault.to_dict() if self.fault else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        if "seed" not in data:
            raise SpecError("a scenario dict must carry an explicit 'seed'")
        fault = data.get("fault")
        return cls(
            name=data["name"],
            seed=int(data["seed"]),
            description=data.get("description", ""),
            tags=tuple(data.get("tags", ())),
            topology=TopologySpec.from_dict(data.get("topology", {})),
            tenants=tuple(TenantSpec.from_dict(t)
                          for t in data.get("tenants", ())),
            traffic=TrafficSpec.from_dict(data.get("traffic", {})),
            fault=FaultSpec.from_dict(fault) if fault else None,
        )
