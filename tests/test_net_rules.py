"""Tests for repro.net.rules: prefixes, match rules, rule tables."""

import random

import pytest

from repro.net.packet import FiveTuple, PROTO_TCP, PROTO_UDP, Packet, ip_to_int
from repro.net.rules import (
    MatchRule,
    PortRange,
    Prefix,
    RuleAction,
    RuleTable,
    SwitchingRule,
)
from repro.nf.firewall import make_emerging_threats_rules


class TestPrefix:
    def test_parse_with_length(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.length == 8 and p.address == ip_to_int("10.0.0.0")

    def test_parse_bare_is_host(self):
        assert Prefix.parse("1.2.3.4").length == 32

    def test_contains(self):
        p = Prefix.parse("192.168.0.0/16")
        assert p.contains(ip_to_int("192.168.55.1"))
        assert not p.contains(ip_to_int("192.169.0.1"))

    def test_zero_length_matches_all(self):
        p = Prefix.parse("0.0.0.0/0")
        assert p.contains(0) and p.contains(0xFFFFFFFF)

    def test_host_prefix_exact(self):
        p = Prefix.parse("1.2.3.4/32")
        assert p.contains(ip_to_int("1.2.3.4"))
        assert not p.contains(ip_to_int("1.2.3.5"))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Prefix.parse("1.2.3.4/33")

    def test_str(self):
        assert str(Prefix.parse("10.0.0.0/8")) == "10.0.0.0/8"

    def test_mask(self):
        assert Prefix.parse("0.0.0.0/0").mask == 0
        assert Prefix.parse("1.0.0.0/8").mask == 0xFF000000

    @pytest.mark.parametrize("length", [-1, 33, 64])
    def test_constructor_rejects_bad_length(self, length):
        with pytest.raises(ValueError):
            Prefix(ip_to_int("1.2.3.4"), length)

    def test_host_bits_in_address_are_ignored(self):
        p = Prefix(ip_to_int("10.1.2.3"), 8)
        assert p.mask == 0xFF000000
        assert p.contains(ip_to_int("10.200.0.1"))
        assert not p.contains(ip_to_int("11.1.2.3"))

    def test_precomputed_fields_stay_out_of_equality(self):
        a = Prefix(ip_to_int("10.0.0.0"), 8)
        assert a == Prefix(ip_to_int("10.0.0.0"), 8)
        assert hash(a) == hash(Prefix(ip_to_int("10.0.0.0"), 8))
        assert repr(a) == "Prefix(address=167772160, length=8)"


class TestPortRange:
    def test_default_matches_all(self):
        assert PortRange().contains(0) and PortRange().contains(65535)

    def test_inclusive_bounds(self):
        r = PortRange(80, 81)
        assert r.contains(80) and r.contains(81) and not r.contains(82)


def _ft(src="1.1.1.1", dst="2.2.2.2", proto=PROTO_TCP, sport=1000, dport=80):
    return FiveTuple(ip_to_int(src), ip_to_int(dst), proto, sport, dport)


class TestMatchRule:
    def test_empty_rule_matches_everything(self):
        assert MatchRule().matches(_ft())

    def test_proto_filter(self):
        rule = MatchRule(proto=PROTO_UDP)
        assert not rule.matches(_ft(proto=PROTO_TCP))
        assert rule.matches(_ft(proto=PROTO_UDP))

    def test_src_prefix_filter(self):
        rule = MatchRule(src_prefix=Prefix.parse("1.0.0.0/8"))
        assert rule.matches(_ft(src="1.9.9.9"))
        assert not rule.matches(_ft(src="2.9.9.9"))

    def test_dst_prefix_filter(self):
        rule = MatchRule(dst_prefix=Prefix.parse("2.2.2.2/32"))
        assert rule.matches(_ft(dst="2.2.2.2"))
        assert not rule.matches(_ft(dst="2.2.2.3"))

    def test_port_filters(self):
        rule = MatchRule(dst_ports=PortRange(80, 80), src_ports=PortRange(1000, 2000))
        assert rule.matches(_ft(sport=1500, dport=80))
        assert not rule.matches(_ft(sport=999, dport=80))
        assert not rule.matches(_ft(sport=1500, dport=81))

    def test_vni_filter(self):
        rule = MatchRule(vni=7)
        assert rule.matches(_ft(), vni=7)
        assert not rule.matches(_ft(), vni=8)
        assert not rule.matches(_ft(), vni=None)

    def test_no_vni_filter_ignores_vni(self):
        assert MatchRule().matches(_ft(), vni=99)

    def test_matches_packet(self):
        p = Packet.make("1.1.1.1", "2.2.2.2", src_port=5, dst_port=80)
        assert MatchRule(dst_ports=PortRange(80, 80)).matches_packet(p)


class TestRuleTable:
    def test_first_match_in_order(self):
        table = RuleTable(
            [
                MatchRule(proto=PROTO_TCP, action=RuleAction.DROP),
                MatchRule(action=RuleAction.ACCEPT),
            ]
        )
        assert table.lookup(_ft(proto=PROTO_TCP)).action is RuleAction.DROP
        assert table.lookup(_ft(proto=PROTO_UDP)).action is RuleAction.ACCEPT

    def test_priority_wins_over_insertion(self):
        low = MatchRule(action=RuleAction.ACCEPT, priority=0)
        high = MatchRule(action=RuleAction.DROP, priority=10)
        table = RuleTable([low, high])
        assert table.lookup(_ft()).action is RuleAction.DROP

    def test_equal_priority_stable(self):
        first = MatchRule(action=RuleAction.DROP, priority=5)
        second = MatchRule(action=RuleAction.ACCEPT, priority=5)
        table = RuleTable([first, second])
        assert table.lookup(_ft()).action is RuleAction.DROP

    def test_no_match_returns_none(self):
        table = RuleTable([MatchRule(proto=PROTO_UDP)])
        assert table.lookup(_ft(proto=PROTO_TCP)) is None

    def test_len_and_iter(self):
        rules = [MatchRule(), MatchRule(proto=PROTO_TCP)]
        table = RuleTable(rules)
        assert len(table) == 2
        assert len(list(table)) == 2

    def test_lookup_packet_uses_vni(self):
        p = Packet.make("1.1.1.1", "2.2.2.2")
        p.vni = 3
        table = RuleTable([MatchRule(vni=3, action=RuleAction.DROP)])
        assert table.lookup_packet(p).action is RuleAction.DROP

    def test_earlier_wildcard_beats_exact_bucket(self):
        exact = MatchRule(proto=PROTO_TCP, dst_ports=PortRange(80, 80),
                          action=RuleAction.DROP)
        wildcard = MatchRule(action=RuleAction.ACCEPT, priority=5)
        table = RuleTable([exact, wildcard])
        assert table.lookup(_ft(dport=80)) is wildcard
        assert list(table) == [wildcard, exact]

    def test_exact_rule_found_in_its_bucket_only(self):
        exact = MatchRule(proto=PROTO_UDP, dst_ports=PortRange(53, 53))
        table = RuleTable([exact, MatchRule(proto=PROTO_TCP,
                                            dst_ports=PortRange(53, 53))])
        assert table.lookup(_ft(proto=PROTO_UDP, dport=53)) is exact
        assert table.lookup(_ft(proto=PROTO_UDP, dport=54)) is None

    def test_add_after_lookup_rebuilds_index(self):
        table = RuleTable([MatchRule(proto=PROTO_TCP,
                                     dst_ports=PortRange(80, 80))])
        assert table.lookup(_ft(dport=81)) is None
        late = MatchRule(dst_ports=PortRange(81, 90), action=RuleAction.DROP)
        table.add(late)
        assert table.lookup(_ft(dport=81)) is late


class TestSwitchingRule:
    def test_binds_nf(self):
        rule = SwitchingRule(match=MatchRule(proto=PROTO_TCP), nf_id=7)
        p = Packet.make("1.1.1.1", "2.2.2.2")
        assert rule.matches_packet(p)
        assert rule.nf_id == 7


def _linear_lookup(table, five_tuple, vni):
    """The reference semantics: first match over the table in order."""
    for rule in table:
        if rule.matches(five_tuple, vni):
            return rule
    return None


_PORT_POOL = (22, 53, 80, 443, 8080)


def _random_prefix(rng):
    length = rng.choice([0, 8, 16, 24, 32])
    return Prefix(rng.randrange(1 << 32), length)


def _random_ports(rng):
    shape = rng.random()
    if shape < 0.5:
        port = rng.choice(_PORT_POOL)
        return PortRange(port, port)
    if shape < 0.8:
        low = rng.choice(_PORT_POOL)
        return PortRange(low, low + rng.randrange(0, 500))
    return PortRange()


def _random_rule(rng):
    return MatchRule(
        src_prefix=_random_prefix(rng) if rng.random() < 0.7 else None,
        dst_prefix=_random_prefix(rng) if rng.random() < 0.3 else None,
        proto=rng.choice([PROTO_TCP, PROTO_UDP, None]),
        src_ports=(PortRange(1000, 1000 + rng.randrange(20000))
                   if rng.random() < 0.2 else PortRange()),
        dst_ports=_random_ports(rng),
        vni=rng.choice([None, None, None, 1, 2]),
        action=rng.choice(list(RuleAction)),
        priority=rng.choice([0, 0, 0, 1, 5]),
    )


def _inside(rng, prefix):
    """A random address inside ``prefix`` (any address for ``None``)."""
    ip = rng.randrange(1 << 32)
    if prefix is None:
        return ip
    return (prefix.address & prefix.mask) | (ip & ~prefix.mask & 0xFFFFFFFF)


def _draw(rng, rules):
    """A (five-tuple, vni) aimed at a random rule, so lookups do match."""
    rule = rng.choice(rules)
    ports = rule.dst_ports
    dst_port = (rng.choice(_PORT_POOL) if rng.random() < 0.2
                else rng.randint(ports.low, min(ports.high, ports.low + 600)))
    five_tuple = FiveTuple(
        src_ip=_inside(rng, rule.src_prefix),
        dst_ip=_inside(rng, rule.dst_prefix),
        proto=(rule.proto if rule.proto is not None and rng.random() < 0.9
               else rng.choice([PROTO_TCP, PROTO_UDP, 1])),
        src_port=rng.randint(rule.src_ports.low,
                             min(rule.src_ports.high, rule.src_ports.low + 9000)),
        dst_port=dst_port,
    )
    return five_tuple, rng.choice([None, rule.vni, 1, 2])


def _assert_same_as_linear(table, rng, n):
    """Check ``n`` drawn lookups; return the actions of those that hit."""
    rules = list(table)
    actions = []
    for _ in range(n):
        five_tuple, vni = _draw(rng, rules)
        expected = _linear_lookup(table, five_tuple, vni)
        assert table.lookup(five_tuple, vni) is expected
        if expected is not None:
            actions.append(expected.action)
    return actions


class TestRuleTableIndexDifferential:
    """The indexed lookup returns exactly the rule a linear scan returns."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tables(self, seed):
        rng = random.Random(seed)
        table = RuleTable(_random_rule(rng) for _ in range(rng.randint(1, 120)))
        hits = _assert_same_as_linear(table, rng, 400)
        assert len(hits) > 200  # the draws really exercise the rules

    @pytest.mark.parametrize("seed", range(6))
    def test_add_after_lookup(self, seed):
        rng = random.Random(1000 + seed)
        table = RuleTable(_random_rule(rng) for _ in range(40))
        _assert_same_as_linear(table, rng, 100)
        for _ in range(20):
            table.add(_random_rule(rng))
            _assert_same_as_linear(table, rng, 30)
        assert len(table) == 60

    def test_emerging_threats_ruleset(self):
        table = make_emerging_threats_rules(643)
        hits = _assert_same_as_linear(table, random.Random(643), 3000)
        assert len(hits) > 2000
        assert {RuleAction.DROP, RuleAction.ACCEPT} <= set(hits)
