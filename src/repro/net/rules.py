"""Match rules: 5-tuple predicates and NIC switching rules.

Section 3.1 of the paper describes how a smart NIC's packet input module
uses management-configured switching rules — predicates over a packet's
5-tuple — to decide which network function receives an incoming packet.
Section 4.4 extends those rules with VXLAN Virtual Network Identifiers so
that a tenant's virtual L2 flows can be directed to specific functions.

:class:`MatchRule` is also the rule format consumed by the stateful
firewall NF (§5.1), which applies an ordered list of these rules
first-match.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.packet import FiveTuple, Packet, ip_to_int


class RuleAction(enum.Enum):
    """What to do with a matching packet."""

    ACCEPT = "accept"
    DROP = "drop"
    FORWARD = "forward"


def _parse_prefix(cidr: str) -> "Prefix":
    """Parse ``"a.b.c.d/len"`` (or a bare address = /32) into a Prefix."""
    if "/" in cidr:
        addr, length_text = cidr.split("/", 1)
        length = int(length_text)
    else:
        addr, length = cidr, 32
    return Prefix(ip_to_int(addr), length)


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix: ``address`` with the top ``length`` bits significant.

    The mask and the network address are computed once at construction,
    so :meth:`contains` is one AND and one compare.
    """

    address: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"bad prefix length {self.length}")
        mask = (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "_network", self.address & mask)

    @classmethod
    def parse(cls, cidr: str) -> "Prefix":
        return _parse_prefix(cidr)

    @property
    def mask(self) -> int:
        return self._mask

    def contains(self, ip: int) -> bool:
        return (ip & self._mask) == self._network

    def __str__(self) -> str:
        from repro.net.packet import ip_to_str

        return f"{ip_to_str(self.address)}/{self.length}"


@dataclass(frozen=True)
class PortRange:
    """An inclusive L4 port range; ``PortRange(0, 65535)`` matches any port."""

    low: int = 0
    high: int = 65535

    def contains(self, port: int) -> bool:
        return self.low <= port <= self.high


ANY_PORTS = PortRange()


@dataclass(frozen=True)
class MatchRule:
    """A predicate over a packet's 5-tuple (plus optional VNI).

    ``None`` fields are wildcards.  Rules are evaluated in priority order by
    :class:`RuleTable`; the firewall NF evaluates them in list order, which
    matches how Emerging-Threats-style rulesets are applied.
    """

    src_prefix: Optional[Prefix] = None
    dst_prefix: Optional[Prefix] = None
    proto: Optional[int] = None
    src_ports: PortRange = ANY_PORTS
    dst_ports: PortRange = ANY_PORTS
    vni: Optional[int] = None
    action: RuleAction = RuleAction.ACCEPT
    priority: int = 0

    def matches(self, five_tuple: FiveTuple, vni: Optional[int] = None) -> bool:
        if self.proto is not None and five_tuple.proto != self.proto:
            return False
        if self.src_prefix is not None and not self.src_prefix.contains(
            five_tuple.src_ip
        ):
            return False
        if self.dst_prefix is not None and not self.dst_prefix.contains(
            five_tuple.dst_ip
        ):
            return False
        if not self.src_ports.contains(five_tuple.src_port):
            return False
        if not self.dst_ports.contains(five_tuple.dst_port):
            return False
        if self.vni is not None and vni != self.vni:
            return False
        return True

    def matches_packet(self, packet: Packet) -> bool:
        return self.matches(packet.five_tuple, packet.vni)


@dataclass(frozen=True)
class SwitchingRule:
    """A NIC switching rule: a :class:`MatchRule` bound to a destination NF.

    The packet input module consults these to pick the DRAM region (i.e.,
    network function) an arriving packet is copied into (§3.1, §4.4).
    """

    match: MatchRule
    nf_id: int

    def matches_packet(self, packet: Packet) -> bool:
        return self.match.matches_packet(packet)


def _exact_key(rule: MatchRule) -> Optional[Tuple[int, int]]:
    """``(proto, dst_port)`` for a rule pinned to one protocol and one
    destination port, else ``None`` (the rule is a wildcard)."""
    ports = rule.dst_ports
    if rule.proto is None or ports.low != ports.high:
        return None
    return rule.proto, ports.low


class RuleTable:
    """An ordered rule list with first-match semantics.

    This is the structure the firewall NF consults.  Rules are kept
    sorted by descending priority (ties keep insertion order), and
    :meth:`lookup` returns the first match.

    Lookups go through an index compiled on first use after any
    :meth:`add`.  Rules with a concrete ``proto`` and a single-port
    ``dst_ports`` land in a bucket keyed by ``(proto, dst_port)``; every
    other rule is a wildcard.  Each bucket holds its exact rules and all
    wildcards, merged in table order, so scanning the one bucket a
    five-tuple selects (or the wildcard list, when it selects none)
    returns the same rule as scanning the whole table.
    """

    def __init__(self, rules: Iterable[MatchRule] = ()) -> None:
        self._rules: List[MatchRule] = []
        self._buckets: Optional[Dict[Tuple[int, int], List[MatchRule]]] = None
        self._wildcards: List[MatchRule] = []
        for rule in rules:
            self.add(rule)

    def add(self, rule: MatchRule) -> None:
        # Insertion sort on descending priority keeps ties stable.
        index = len(self._rules)
        while index > 0 and self._rules[index - 1].priority < rule.priority:
            index -= 1
        self._rules.insert(index, rule)
        self._buckets = None

    def _compile(self) -> Dict[Tuple[int, int], List[MatchRule]]:
        keys = {_exact_key(rule) for rule in self._rules} - {None}
        buckets: Dict[Tuple[int, int], List[MatchRule]] = {
            key: [] for key in keys}
        wildcards: List[MatchRule] = []
        for rule in self._rules:
            key = _exact_key(rule)
            if key is not None:
                buckets[key].append(rule)
                continue
            wildcards.append(rule)
            for bucket in buckets.values():
                bucket.append(rule)
        self._buckets, self._wildcards = buckets, wildcards
        return buckets

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def lookup(
        self, five_tuple: FiveTuple, vni: Optional[int] = None
    ) -> Optional[MatchRule]:
        """Return the first rule, in table order, matching ``five_tuple``."""
        buckets = self._buckets
        if buckets is None:
            buckets = self._compile()
        candidates = buckets.get(
            (five_tuple.proto, five_tuple.dst_port), self._wildcards)
        for rule in candidates:
            if rule.matches(five_tuple, vni):
                return rule
        return None

    def lookup_packet(self, packet: Packet) -> Optional[MatchRule]:
        return self.lookup(packet.five_tuple, packet.vni)
