"""Tests for the six network functions (§5.1) — real-algorithm checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import (
    FiveTuple,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    ip_to_int,
    ip_to_str,
)
from repro.net.rules import MatchRule, PortRange, Prefix, RuleAction, RuleTable
from repro.nf import (
    AhoCorasick,
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


def packet(src="10.0.0.1", dst="8.8.8.8", sport=1000, dport=80, payload=b""):
    return Packet.make(src, dst, src_port=sport, dst_port=dport, payload=payload)


class TestFirewall:
    def _fw(self, action=RuleAction.DROP):
        rules = RuleTable(
            [MatchRule(dst_ports=PortRange(22, 22), action=action)]
        )
        return Firewall(rules, cache_capacity=4)

    def test_drop_and_accept(self):
        fw = self._fw()
        assert fw.process(packet(dport=22)) is None
        assert fw.process(packet(dport=80)) is not None

    def test_default_action_when_no_match(self):
        fw = Firewall(RuleTable(), default_action=RuleAction.DROP)
        assert fw.process(packet()) is None

    def test_cache_hit_path(self):
        fw = self._fw()
        fw.process(packet(dport=22))
        fw.process(packet(dport=22))
        assert fw.cache_hits == 1 and fw.cache_misses == 1

    def test_cache_eviction_at_capacity(self):
        fw = self._fw()
        for i in range(10):
            fw.process(packet(sport=2000 + i))
        assert fw.cached_flows <= 4

    def test_cached_verdict_consistent(self):
        fw = self._fw()
        first = fw.process(packet(dport=22))
        second = fw.process(packet(dport=22))
        assert first is None and second is None

    def test_stats(self):
        fw = self._fw()
        fw.process(packet(dport=22))
        fw.process(packet(dport=80))
        assert fw.stats.received == 2
        assert fw.stats.dropped == 1
        assert fw.stats.forwarded == 1
        assert fw.stats.drop_rate == 0.5

    def test_reset(self):
        fw = self._fw()
        fw.process(packet())
        fw.reset()
        assert fw.stats.received == 0 and fw.cached_flows == 0

    def test_cached_verdict_is_per_vni(self):
        rules = RuleTable([MatchRule(vni=3, action=RuleAction.DROP)])
        fw = Firewall(rules)
        tagged = packet()
        tagged.vni = 3
        assert fw.process(tagged) is None
        # Same five-tuple without the VNI: a fresh firewall accepts it,
        # so the DROP cached for VNI 3 must not apply.
        assert fw.process(packet()) is not None
        assert Firewall(rules).process(packet()) is not None
        assert fw.cached_flows == 2

    def test_emerging_threats_generator(self):
        rules = make_emerging_threats_rules(n_rules=643, seed=1)
        assert len(rules) == 643
        actions = {r.action for r in rules}
        assert RuleAction.DROP in actions and RuleAction.ACCEPT in actions

    def test_state_bytes_grows_with_cache(self):
        fw = Firewall(RuleTable(), cache_capacity=100)
        before = fw.state_bytes()
        for i in range(50):
            fw.process(packet(sport=3000 + i))
        assert fw.state_bytes() > before


class TestAhoCorasick:
    def test_classic_example(self):
        ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
        matches = ac.search(b"ushers")
        found = {(pos, pid) for pos, pid in matches}
        # "she" ends at 4, "he" ends at 4, "hers" ends at 6.
        assert (4, 1) in found and (4, 0) in found and (6, 3) in found

    def test_overlapping_matches(self):
        ac = AhoCorasick([b"aa"])
        assert len(ac.search(b"aaaa")) == 3

    def test_no_match(self):
        ac = AhoCorasick([b"xyz"])
        assert ac.search(b"abcabc") == []
        assert not ac.contains_any(b"abcabc")

    def test_contains_any_early_exit(self):
        ac = AhoCorasick([b"evil"])
        assert ac.contains_any(b"this is evil payload")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=4).map(
               lambda p: bytes(b % 4 for b in p)), min_size=1, max_size=6),
           st.binary(max_size=40).map(lambda h: bytes(b % 4 for b in h)))
    def test_contains_any_agrees_with_search(self, patterns, haystack):
        ac = AhoCorasick(patterns)
        assert ac.contains_any(haystack) == bool(ac.search(haystack))

    def test_binary_patterns(self):
        ac = AhoCorasick([b"\x90\x90\x90"])
        assert ac.contains_any(b"\x00\x90\x90\x90\x00")

    def test_pattern_at_start_and_end(self):
        ac = AhoCorasick([b"ab"])
        assert len(ac.search(b"abxxab")) == 2

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            AhoCorasick([])
        with pytest.raises(ValueError):
            AhoCorasick([b""])

    def test_graph_bytes_scales_with_states(self):
        small = AhoCorasick([b"a"])
        large = AhoCorasick(make_snort_like_patterns(200))
        assert large.graph_bytes() > small.graph_bytes()
        assert small.graph_bytes() == small.n_states * 64

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.binary(min_size=1, max_size=5), min_size=1, max_size=8, unique=True
        ),
        st.binary(max_size=60),
    )
    def test_matches_naive_search_property(self, patterns, haystack):
        """Differential test: AC must agree with naive substring search."""
        ac = AhoCorasick(patterns)
        expected = set()
        for pid, pattern in enumerate(patterns):
            start = 0
            while True:
                index = haystack.find(pattern, start)
                if index < 0:
                    break
                expected.add((index + len(pattern), pid))
                start = index + 1
        assert set(ac.search(haystack)) == expected


class TestDPIEngine:
    def test_alert_counting(self):
        dpi = DPIEngine([b"attack"])
        dpi.process(packet(payload=b"an attack payload"))
        dpi.process(packet(payload=b"benign"))
        assert dpi.alerts == 1
        assert dpi.stats.forwarded == 2  # monitor-only by default

    def test_drop_on_match(self):
        dpi = DPIEngine([b"attack"], drop_on_match=True)
        assert dpi.process(packet(payload=b"attack!")) is None
        assert dpi.process(packet(payload=b"fine")) is not None

    def test_pattern_generator_deterministic(self):
        assert make_snort_like_patterns(50, seed=3) == make_snort_like_patterns(
            50, seed=3
        )

    def test_pattern_generator_count_and_nonempty(self):
        patterns = make_snort_like_patterns(100)
        assert len(patterns) == 100
        assert all(patterns)


class TestNAT:
    def test_outbound_translation(self):
        nat = NAT("100.0.0.1")
        out = nat.process(packet(src="10.1.2.3", sport=5555))
        assert ip_to_str(out.ip.src_ip) == "100.0.0.1"
        assert out.l4.src_port != 5555 or out.l4.src_port == 1

    def test_same_flow_same_binding(self):
        nat = NAT("100.0.0.1")
        a = nat.process(packet(src="10.1.2.3", sport=5555))
        port = a.l4.src_port
        b = nat.process(packet(src="10.1.2.3", sport=5555))
        assert b.l4.src_port == port

    def test_distinct_flows_distinct_ports(self):
        nat = NAT("100.0.0.1")
        ports = {
            nat.process(packet(src="10.1.2.3", sport=5000 + i)).l4.src_port
            for i in range(50)
        }
        assert len(ports) == 50

    def test_inbound_rewrite(self):
        nat = NAT("100.0.0.1")
        out = nat.process(packet(src="10.1.2.3", sport=7777))
        ext_port = out.l4.src_port
        reply = Packet.make(
            "8.8.8.8", "100.0.0.1", src_port=80, dst_port=ext_port
        )
        back = nat.process(reply)
        assert ip_to_str(back.ip.dst_ip) == "10.1.2.3"
        assert back.l4.dst_port == 7777

    def test_unsolicited_inbound_dropped(self):
        nat = NAT("100.0.0.1")
        reply = Packet.make("8.8.8.8", "100.0.0.1", src_port=80, dst_port=999)
        assert nat.process(reply) is None

    def test_external_traffic_passthrough(self):
        nat = NAT("100.0.0.1")
        p = packet(src="55.0.0.1", dst="66.0.0.1")
        out = nat.process(p)
        assert ip_to_str(out.ip.src_ip) == "55.0.0.1"

    def test_pool_exhaustion_passthrough(self):
        nat = NAT("100.0.0.1")
        nat._next_port = 65_536  # exhaust the pool artificially
        out = nat.process(packet(src="10.1.2.3", sport=1234))
        assert ip_to_str(out.ip.src_ip) == "10.1.2.3"
        assert nat.pool_exhausted == 1

    def test_reset(self):
        nat = NAT("100.0.0.1")
        nat.process(packet(src="10.1.2.3"))
        nat.reset()
        assert nat.active_bindings == 0 and nat.translations == 0


class TestMaglev:
    BACKENDS = [Backend("b0", "1.0.0.1"), Backend("b1", "1.0.0.2"), Backend("b2", "1.0.0.3")]

    def test_table_filled_and_balanced(self):
        lb = MaglevLoadBalancer(self.BACKENDS, table_size=251)
        distribution = lb.distribution()
        assert sum(distribution.values()) == 251
        # Maglev's guarantee: near-perfect balance.
        assert max(distribution.values()) - min(distribution.values()) <= 3

    def test_deterministic_mapping(self):
        lb1 = MaglevLoadBalancer(self.BACKENDS, table_size=251)
        lb2 = MaglevLoadBalancer(self.BACKENDS, table_size=251)
        ft = FiveTuple(1, 2, 6, 3, 4)
        assert lb1.backend_for(ft).name == lb2.backend_for(ft).name

    def test_connection_stickiness_across_rebuild(self):
        lb = MaglevLoadBalancer(self.BACKENDS, table_size=251)
        ft = FiveTuple(10, 20, 6, 30, 40)
        before = lb.backend_for(ft).name
        # Removing an unrelated backend must not move a tracked flow.
        victim = next(b.name for b in self.BACKENDS if b.name != before)
        lb.remove_backend(victim)
        assert lb.backend_for(ft).name == before

    def test_minimal_disruption(self):
        """Consistent hashing: removing one of three backends should
        remap roughly a third of (untracked) flows, not all of them."""
        lb = MaglevLoadBalancer(self.BACKENDS, table_size=499, track_connections=False)
        flows = [FiveTuple(i, i + 1, 6, i % 65536, 80) for i in range(300)]
        before = {ft: lb.backend_for(ft).name for ft in flows}
        lb.remove_backend("b2")
        moved = sum(
            1
            for ft in flows
            if before[ft] != "b2" and lb.backend_for(ft).name != before[ft]
        )
        survivors = sum(1 for ft in flows if before[ft] != "b2")
        assert moved / survivors < 0.25

    def test_rewrites_destination(self):
        lb = MaglevLoadBalancer(self.BACKENDS, table_size=251)
        out = lb.process(packet())
        assert ip_to_str(out.ip.dst_ip) in {b.ip for b in self.BACKENDS}

    def test_weighted_backend_gets_more(self):
        backends = [Backend("heavy", "1.0.0.1", weight=3), Backend("light", "1.0.0.2")]
        lb = MaglevLoadBalancer(backends, table_size=499)
        d = lb.distribution()
        assert d["heavy"] > d["light"] * 2

    def test_rejects_composite_table_size(self):
        with pytest.raises(ValueError):
            MaglevLoadBalancer(self.BACKENDS, table_size=100)

    def test_rejects_empty_backends(self):
        with pytest.raises(ValueError):
            MaglevLoadBalancer([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            MaglevLoadBalancer([Backend("x", "1.1.1.1"), Backend("x", "2.2.2.2")])

    def test_remove_unknown_backend(self):
        lb = MaglevLoadBalancer(self.BACKENDS, table_size=251)
        with pytest.raises(KeyError):
            lb.remove_backend("nope")

    def test_cannot_remove_last_backend(self):
        lb = MaglevLoadBalancer([Backend("only", "1.1.1.1")], table_size=251)
        with pytest.raises(ValueError):
            lb.remove_backend("only")


class TestDIR24_8:
    def test_basic_longest_prefix(self):
        lpm = DIR24_8()
        lpm.add_route(Prefix.parse("10.0.0.0/8"), 1)
        lpm.add_route(Prefix.parse("10.1.0.0/16"), 2)
        lpm.add_route(Prefix.parse("10.1.2.0/24"), 3)
        lpm.add_route(Prefix.parse("10.1.2.3/32"), 4)
        assert lpm.lookup(ip_to_int("10.5.5.5")) == 1
        assert lpm.lookup(ip_to_int("10.1.5.5")) == 2
        assert lpm.lookup(ip_to_int("10.1.2.5")) == 3
        assert lpm.lookup(ip_to_int("10.1.2.3")) == 4

    def test_insertion_order_independence(self):
        routes = [
            (Prefix.parse("10.1.2.3/32"), 4),
            (Prefix.parse("10.0.0.0/8"), 1),
            (Prefix.parse("10.1.2.0/24"), 3),
            (Prefix.parse("10.1.0.0/16"), 2),
        ]
        lpm = DIR24_8()
        for prefix, hop in routes:
            lpm.add_route(prefix, hop)
        assert lpm.lookup(ip_to_int("10.1.2.3")) == 4
        assert lpm.lookup(ip_to_int("10.1.2.9")) == 3

    def test_no_route_returns_none(self):
        lpm = DIR24_8()
        lpm.add_route(Prefix.parse("10.0.0.0/8"), 1)
        assert lpm.lookup(ip_to_int("11.0.0.1")) is None

    def test_long_prefix_inherits_shorter_backing(self):
        lpm = DIR24_8()
        lpm.add_route(Prefix.parse("10.1.2.0/25"), 7)  # covers .0-.127
        lpm.add_route(Prefix.parse("10.0.0.0/8"), 1)
        assert lpm.lookup(ip_to_int("10.1.2.5")) == 7
        assert lpm.lookup(ip_to_int("10.1.2.200")) == 1

    def test_rejects_bad_next_hop(self):
        lpm = DIR24_8()
        with pytest.raises(ValueError):
            lpm.add_route(Prefix.parse("1.0.0.0/8"), 0)

    def test_handle_decrements_ttl_and_drops_unrouted(self):
        lpm = DIR24_8()
        lpm.add_route(Prefix.parse("8.0.0.0/8"), 3)
        out = lpm.process(packet(dst="8.8.8.8"))
        assert out.ip.ttl == 63
        assert lpm.process(packet(dst="9.9.9.9")) is None

    def test_matches_linear_oracle_random(self):
        rng = random.Random(42)
        routes = make_random_routes(n_routes=300, seed=9)
        lpm = DIR24_8()
        for prefix, hop in routes:
            lpm.add_route(prefix, hop)
        for _ in range(300):
            ip = rng.randrange(0, 1 << 32)
            assert lpm.lookup(ip) == lpm.lookup_linear(ip)

    def test_oracle_agreement_on_route_addresses(self):
        routes = make_random_routes(n_routes=100, seed=10)
        lpm = DIR24_8()
        for prefix, hop in routes:
            lpm.add_route(prefix, hop)
        for prefix, _ in routes[:100]:
            assert lpm.lookup(prefix.address) == lpm.lookup_linear(prefix.address)

    def test_state_bytes(self):
        lpm = DIR24_8()
        base = lpm.state_bytes()
        lpm.add_route(Prefix.parse("1.2.3.4/32"), 5)
        assert lpm.state_bytes() > base  # a tbl8 group was allocated


class TestMonitor:
    def test_counts_per_flow(self):
        mon = Monitor()
        p = packet()
        for _ in range(3):
            mon.process(p.copy())
        mon.process(packet(sport=2222))
        assert mon.count_of(p.five_tuple) == 3
        assert mon.distinct_flows == 2

    def test_forwards_unchanged(self):
        mon = Monitor()
        p = packet(payload=b"xyz")
        out = mon.process(p)
        assert out is p

    def test_top_flows(self):
        mon = Monitor()
        for _ in range(5):
            mon.process(packet(sport=1))
        mon.process(packet(sport=2))
        top = mon.top_flows(1)
        assert top[0][1] == 5

    def test_peak_state_includes_transients(self):
        mon = Monitor()
        for i in range(5000):
            mon.process(packet(sport=i % 65536, dport=i // 65536 + 1))
        assert mon.peak_state_bytes() > mon.state_bytes() * 1.2

    def test_reset(self):
        mon = Monitor()
        mon.process(packet())
        mon.reset()
        assert mon.distinct_flows == 0
