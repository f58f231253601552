"""Declarative scenario specifications.

Every experiment in the repo — the co-tenancy trace demo, the chaos
differentials, the matrix sweep cells — is describable as *which NIC
model*, *which tenants running which NFs*, *what traffic*, *which fault
(if any)*, and *which bus arbitration policy*.  This module gives that
description a frozen, validated dataclass form, so scenarios can be
authored in Python, loaded from JSON-shaped dicts (``--spec FILE``), or
generated axis-by-axis by the matrix runner (SimBricks'
declaratively-joined-components idea applied to one NIC).

One codec, :func:`to_dict` / :func:`from_dict`, maps every record
(these specs and :mod:`repro.obs.slo`'s objectives) to and from its
dict form, losslessly.  Each default is written once, in its field
declaration.  An unknown key, a missing required field, a non-mapping
where a record belongs or a failed validation raises :class:`SpecError`
naming its dotted path (``topology.arbiter``, ``tenants.0.slo``) at
every level, so a misspelled key never runs a different experiment.

Determinism is part of the schema, not a convention: a
:class:`ScenarioSpec` *requires* an explicit ``seed`` and every derived
random stream flows from it (``derive_seed`` gives stable per-purpose
sub-seeds).  The ``seed`` field has no default, so a spec built
without one raises ``TypeError`` (``SpecError`` from a dict).
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import lru_cache
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Tuple, Type, TypeVar, Union, get_args,
                    get_origin, get_type_hints)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.slo import TenantSLO

#: NF kinds the builder knows how to materialize (repro.nf classes).
NF_KINDS = ("firewall", "monitor", "dpi", "nat", "lb", "lpm")

#: NIC models the builder can stand up.
NIC_MODELS = ("commodity", "snic")

#: Bus arbitration policies (repro.hw.bus arbiters).
ARBITER_POLICIES = ("fcfs", "temporal", "drr")

_Params = Tuple[Tuple[str, object], ...]

_R = TypeVar("_R")


class SpecError(ValueError):
    """A scenario spec failed validation."""


def _as_params(value) -> _Params:
    """Canonicalize a params mapping/pair-sequence into sorted tuples."""
    if value is None:
        return ()
    items = value.items() if isinstance(value, dict) else value
    return tuple(sorted((str(k), v) for k, v in items))


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
        return dict(self.params).get(name, default)


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
            from repro.obs.slo import TenantSLO

            if not isinstance(self.slo, TenantSLO):
                try:
                    object.__setattr__(
                        self, "slo", from_dict(TenantSLO, self.slo, "slo"))
                except SpecError as exc:
                    raise SpecError(f"tenant {self.name!r}: {exc}") from exc

    def dst_ip(self) -> str:
        """A concrete destination address inside this tenant's prefix."""
        octets = self.dst_prefix.split("/")[0].split(".")
        octets[-1] = "9"
        return ".".join(octets)


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
        return dict(self.params).get(name, default)


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
        return to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        return from_dict(cls, data)


# ----------------------------------------------------------------------
# The dict codec
# ----------------------------------------------------------------------


def _json_shape(pairs: List[Tuple[str, Any]]) -> Dict[str, object]:
    # ``params`` is stored as sorted (key, value) pairs so a spec
    # hashes; it travels as a mapping.  Every other tuple is a list.
    return {key: dict(value) if key == "params"
            else list(value) if isinstance(value, tuple) else value
            for key, value in pairs}


def to_dict(record: Any) -> Dict[str, object]:
    """The JSON-shaped dict of any spec record, fields in declaration
    order (what a ``--spec`` file holds)."""
    return asdict(record, dict_factory=_json_shape)


@lru_cache(maxsize=None)
def _field_types(cls: type) -> Dict[str, Any]:
    # TenantSpec.slo names repro.obs.slo's TenantSLO; it is imported
    # here, not at module top, so the spec layer loads without repro.obs.
    from repro.obs.slo import TenantSLO

    return get_type_hints(cls, localns={"TenantSLO": TenantSLO})


def _decode(hint: Any, value: object, path: str) -> object:
    """One field's value: nested records recurse, ``int``/``float``
    coerce, ``params`` must be a mapping and any other tuple field a
    list; the rest is left for the record's ``__post_init__``."""
    if get_origin(hint) is Union:  # Optional[X]
        if value is None:
            return None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        return from_dict(hint, value, path)
    if hint == _Params:
        if not isinstance(value, Mapping):
            raise SpecError(f"{path}: expected a mapping, "
                            f"got {type(value).__name__}")
    elif get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise SpecError(f"{path}: expected a list, "
                            f"got {type(value).__name__}")
        item_type = get_args(hint)[0]
        if is_dataclass(item_type):
            return tuple(from_dict(item_type, item, f"{path}.{index}")
                         for index, item in enumerate(value))
    if hint in (int, float):
        try:
            return hint(value)
        except (TypeError, ValueError):
            raise SpecError(f"{path}: expected {hint.__name__}, "
                            f"got {value!r}") from None
    return value


def from_dict(cls: Type[_R], data: object, path: str = "") -> _R:
    """Build the record ``cls`` from its dict form.

    Every field missing from ``data`` takes its declared default.  An
    unknown key, a non-mapping where a record belongs, a missing
    required field or a failed validation raises :class:`SpecError`
    naming the dotted ``path`` (``topology.arbiter``, ``tenants.0``).
    """
    prefix = f"{path}: " if path else ""
    if not isinstance(data, Mapping):
        raise SpecError(f"{prefix}expected a {cls.__name__} mapping, "
                        f"got {type(data).__name__}")
    record_cls: Any = cls
    declared = fields(record_cls)
    unknown = sorted(set(map(str, data)) - {f.name for f in declared})
    if unknown:
        raise SpecError(f"{prefix}unknown {cls.__name__} fields: {unknown}")
    hints = _field_types(cls)
    kwargs: Dict[str, object] = {}
    for f in declared:
        if f.name in data:
            at = f"{path}.{f.name}" if path else f.name
            kwargs[f.name] = _decode(hints[f.name], data[f.name], at)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise SpecError(f"{prefix}missing required field {f.name!r}")
    try:
        return record_cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{prefix}{exc}") from exc
