"""Stateful firewall (the paper's FW workload, §5.1).

"A stateful firewall that drops packets by scanning a list of rules.
Recently-accessed rules are cached in a HashMap ... We limit the cache
size to 200,000 entries, which is the cached flow limit in Open vSwitch.
... We configure the function with 643 rules, as in the SafeBricks
paper."

The fast path is a flow-cache lookup on the packet's 5-tuple and VNI;
a miss takes the first matching rule of the ordered list and installs
its verdict in the cache with LRU eviction at the Open vSwitch limit.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Optional, Tuple

from repro.net.packet import FiveTuple, PROTO_TCP, PROTO_UDP, Packet
from repro.net.rules import MatchRule, PortRange, Prefix, RuleAction, RuleTable
from repro.nf.base import NetworkFunction

#: Open vSwitch's cached-flow limit, used by the paper.
OVS_FLOW_CACHE_LIMIT = 200_000

#: Rule count from the SafeBricks evaluation, used by the paper.
SAFEBRICKS_RULE_COUNT = 643


class Firewall(NetworkFunction):
    """Ordered-rule-scan firewall with an LRU verdict cache."""

    name = "FW"

    def __init__(
        self,
        rules: RuleTable,
        cache_capacity: int = OVS_FLOW_CACHE_LIMIT,
        default_action: RuleAction = RuleAction.ACCEPT,
    ) -> None:
        super().__init__()
        self.rules = rules
        self.cache_capacity = cache_capacity
        self.default_action = default_action
        self._cache: "OrderedDict[Tuple[FiveTuple, Optional[int]], RuleAction]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    def handle(self, packet: Packet) -> Optional[Packet]:
        verdict = self._verdict(packet.five_tuple, packet.vni)
        return packet if verdict is RuleAction.ACCEPT else None

    def _verdict(self, five_tuple: FiveTuple, vni: Optional[int]) -> RuleAction:
        # Rules can match on the VNI, so the verdict is per (flow, VNI).
        key = (five_tuple, vni)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self.cache_misses += 1
        rule = self.rules.lookup(five_tuple, vni)
        action = rule.action if rule is not None else self.default_action
        self._cache[key] = action
        if len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)
        return action

    @property
    def cached_flows(self) -> int:
        return len(self._cache)

    def flush_cache(self) -> None:
        """Drop all cached verdicts (e.g. after a ruleset update)."""
        self._cache.clear()

    def state_bytes(self) -> int:
        # ~48 B per cached flow entry + ~64 B per installed rule.
        return len(self._cache) * 48 + len(self.rules) * 64

    def reset(self) -> None:
        super().reset()
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0


class StatefulFirewall(Firewall):
    """Firewall with full TCP connection tracking.

    On top of the rule verdicts, TCP packets must fit the conntrack
    automaton (:mod:`repro.nf.conntrack`): unsolicited mid-stream
    segments and packets on closed connections are dropped even when a
    rule would accept them — netfilter's ``-m state --state
    ESTABLISHED,RELATED`` discipline.
    """

    name = "FW"

    def __init__(
        self,
        rules: RuleTable,
        cache_capacity: int = OVS_FLOW_CACHE_LIMIT,
        default_action: RuleAction = RuleAction.ACCEPT,
        max_connections: int = 65_536,
    ) -> None:
        super().__init__(rules, cache_capacity, default_action)
        from repro.nf.conntrack import ConnectionTracker

        self.conntrack = ConnectionTracker(max_connections=max_connections)
        self.invalid_drops = 0

    def handle(self, packet: Packet) -> Optional[Packet]:
        from repro.nf.conntrack import Verdict as ConnVerdict

        verdict = self._verdict(packet.five_tuple, packet.vni)
        if verdict is not RuleAction.ACCEPT:
            return None
        if self.conntrack.update(packet) is ConnVerdict.INVALID:
            self.invalid_drops += 1
            return None
        return packet

    def state_bytes(self) -> int:
        return super().state_bytes() + len(self.conntrack) * 96

    def reset(self) -> None:
        super().reset()
        from repro.nf.conntrack import ConnectionTracker

        self.conntrack = ConnectionTracker(
            max_connections=self.conntrack.max_connections
        )
        self.invalid_drops = 0


def make_emerging_threats_rules(
    n_rules: int = SAFEBRICKS_RULE_COUNT,
    seed: int = 7,
    drop_fraction: float = 0.6,
) -> RuleTable:
    """A synthetic stand-in for the Emerging Threats firewall ruleset.

    The real ruleset is a list of drop rules over suspicious prefixes and
    ports; we generate the same shape: mostly DROP rules on /16–/32
    source prefixes and well-known destination ports, with some ACCEPT
    carve-outs.  Rule *content* does not matter to any experiment — only
    the scan length and the match distribution do.
    """
    rng = random.Random(seed)
    table = RuleTable()
    for i in range(n_rules):
        prefix_len = rng.choice([16, 24, 24, 32])
        base = rng.randrange(0, 1 << 32)
        mask = 0 if prefix_len == 0 else (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
        action = (
            RuleAction.DROP if rng.random() < drop_fraction else RuleAction.ACCEPT
        )
        dst_port = rng.choice([22, 23, 80, 443, 445, 1433, 3306, 3389, 8080])
        table.add(
            MatchRule(
                src_prefix=Prefix(base & mask, prefix_len),
                proto=rng.choice([PROTO_TCP, PROTO_TCP, PROTO_UDP]),
                dst_ports=PortRange(dst_port, dst_port),
                action=action,
                priority=0,
            )
        )
    return table
