"""Tests for the §4.8 extensions: function chaining, SecDCP-in-SNIC,
side-channel demonstrations, and the non-interference harness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.commodity.sidechannels import (
    bus_watermark_on_fcfs,
    bus_watermark_on_snic,
    cache_covert_channel,
)
from repro.core import NFConfig, NICOS, SNIC
from repro.core.cache_policy import NIC_OS_OWNER, SecDCPPolicy
from repro.core.chaining import ChainError, CrossVPPLink, FunctionChain
from repro.core.errors import TeardownError
from repro.core.noninterference import (
    AttackerProgram,
    check_noninterference,
    run_experiment,
)
from repro.core.vpp import VPPConfig
from repro.hw.cache import HARD, SOFT
from repro.net.packet import Packet, ip_to_str
from repro.net.rules import MatchRule, Prefix
from repro.nf import Firewall, Monitor, NAT
from repro.net.rules import RuleAction, RuleTable

MB = 1024 * 1024


@pytest.fixture
def chain_system():
    snic = SNIC(n_cores=4, dram_bytes=256 * MB, key_seed=61)
    nic_os = NICOS(snic)
    first = nic_os.NF_create(
        NFConfig(name="nat", core_ids=(0,), memory_bytes=4 * MB,
                 vpp=VPPConfig(rules=[MatchRule()]))
    )
    second = nic_os.NF_create(
        NFConfig(name="mon", core_ids=(1,), memory_bytes=4 * MB)
    )
    return snic, nic_os, first, second


class TestCrossVPPLink:
    def test_moves_frames(self, chain_system):
        snic, _, first, second = chain_system
        first.transmit(Packet.make("10.0.0.1", "8.8.8.8"))
        link = CrossVPPLink(snic, first.nf_id, second.nf_id)
        assert link.pump() == 1
        received = second.receive()
        assert received is not None
        assert ip_to_str(received.ip.dst_ip) == "8.8.8.8"
        assert link.stats.frames_moved == 1

    def test_copies_by_value(self, chain_system):
        """Downstream mutation must not affect the upstream copy: the
        link transfers bytes, not shared references."""
        snic, _, first, second = chain_system
        packet = Packet.make("10.0.0.1", "8.8.8.8", payload=b"orig")
        first.transmit(packet)
        CrossVPPLink(snic, first.nf_id, second.nf_id).pump()
        downstream = second.receive()
        downstream.payload = b"mut!"
        assert packet.payload == b"orig"

    def test_backpressure_drops(self, chain_system):
        snic, _, first, second = chain_system
        ring = snic.record(second.nf_id).vpp.rx_ring
        capacity = ring.capacity
        link = CrossVPPLink(snic, first.nf_id, second.nf_id)
        for i in range(capacity + 5):
            first.transmit(Packet.make("10.0.0.1", "8.8.8.8", src_port=i + 1))
            link.pump()
        # ring holds `capacity`; the rest were dropped, not queued.
        assert link.stats.drops_backpressure == 5

    def test_self_link_rejected(self, chain_system):
        snic, _, first, _ = chain_system
        with pytest.raises(ChainError):
            CrossVPPLink(snic, first.nf_id, first.nf_id)

    def test_dead_endpoint_rejected(self, chain_system):
        snic, nic_os, first, second = chain_system
        nic_os.NF_destroy(second.nf_id)
        with pytest.raises(TeardownError):
            CrossVPPLink(snic, first.nf_id, second.nf_id)

    def test_no_memory_mappings_created(self, chain_system):
        """Chaining must not weaken isolation: after pumping, neither
        core TLB reaches the other function's pages."""
        snic, _, first, second = chain_system
        first.transmit(Packet.make("10.0.0.1", "8.8.8.8"))
        CrossVPPLink(snic, first.nf_id, second.nf_id).pump()
        page_size = snic.memory.page_size
        first_pages = snic.cores[0].tlb.physical_pages(page_size)
        second_pages = snic.cores[1].tlb.physical_pages(page_size)
        assert first_pages.isdisjoint(second_pages)


class TestFunctionChain:
    def test_three_stage_chain(self):
        snic = SNIC(n_cores=4, dram_bytes=256 * MB, key_seed=62)
        nic_os = NICOS(snic)
        ids = []
        stages = {}
        nat = NAT("100.0.0.1")
        fw = Firewall(RuleTable())  # accept-all
        mon = Monitor()
        for name, nf in (("nat", nat), ("fw", fw), ("mon", mon)):
            vnic = nic_os.NF_create(
                NFConfig(
                    name=name, core_ids=(len(ids),), memory_bytes=4 * MB,
                    vpp=VPPConfig(rules=[MatchRule()] if name == "nat" else []),
                )
            )
            ids.append(vnic.nf_id)
            stages[vnic.nf_id] = nf
        chain = FunctionChain(snic, ids)
        snic.rx_port.wire_arrival(
            Packet.make("10.0.0.9", "8.8.8.8", src_port=7777, dst_port=80)
        )
        snic.process_ingress()
        emitted = chain.run(stages, rounds=4)
        assert emitted == 1
        # Every stage saw the packet; NAT rewrote it first.
        assert nat.translations == 1
        assert fw.stats.received == 1
        assert mon.distinct_flows == 1
        owner, frame = snic.tx_port.transmitted[0]
        wire_packet = Packet.from_bytes(frame)
        assert owner == ids[-1]
        assert ip_to_str(wire_packet.ip.src_ip) == "100.0.0.1"

    def test_chain_drops_propagate(self):
        snic = SNIC(n_cores=4, dram_bytes=256 * MB, key_seed=63)
        nic_os = NICOS(snic)
        fw_rules = RuleTable([MatchRule(action=RuleAction.DROP)])
        first = nic_os.NF_create(
            NFConfig(name="fw", core_ids=(0,), memory_bytes=4 * MB,
                     vpp=VPPConfig(rules=[MatchRule()]))
        )
        second = nic_os.NF_create(
            NFConfig(name="mon", core_ids=(1,), memory_bytes=4 * MB)
        )
        chain = FunctionChain(snic, [first.nf_id, second.nf_id])
        stages = {first.nf_id: Firewall(fw_rules), second.nf_id: Monitor()}
        snic.rx_port.wire_arrival(Packet.make("1.1.1.1", "2.2.2.2"))
        snic.process_ingress()
        emitted = chain.run(stages, rounds=3)
        assert emitted == 0
        assert stages[second.nf_id].distinct_flows == 0

    def test_chain_validation(self):
        snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=64)
        nic_os = NICOS(snic)
        vnic = nic_os.NF_create(
            NFConfig(name="solo", core_ids=(0,), memory_bytes=4 * MB)
        )
        with pytest.raises(ChainError):
            FunctionChain(snic, [vnic.nf_id])
        with pytest.raises(ChainError):
            FunctionChain(snic, [vnic.nf_id, vnic.nf_id])


class TestSecDCPInSNIC:
    def test_snic_accepts_secdcp(self):
        snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=65,
                    cache_policy=SecDCPPolicy())
        nic_os = NICOS(snic)
        a = nic_os.NF_create(NFConfig(name="a", core_ids=(0,), memory_bytes=4 * MB))
        allocation = snic.cache_rebalance()
        assert allocation[a.nf_id] >= 1
        assert allocation[NIC_OS_OWNER] >= 1

    def test_rebalance_donates_on_idle_os(self):
        snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=66,
                    cache_policy=SecDCPPolicy())
        nic_os = NICOS(snic)
        a = nic_os.NF_create(NFConfig(name="a", core_ids=(0,), memory_bytes=4 * MB))
        before = snic.cache_rebalance()[a.nf_id]
        for _ in range(50):
            snic.l2.access(0, owner=NIC_OS_OWNER)  # OS hits -> low misses
        after = snic.cache_rebalance()[a.nf_id]
        assert after == before + 1

    def test_static_policy_rebalance_is_noop(self):
        snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=67)
        nic_os = NICOS(snic)
        a = nic_os.NF_create(NFConfig(name="a", core_ids=(0,), memory_bytes=4 * MB))
        first = snic.cache_rebalance()
        second = snic.cache_rebalance()
        assert first == second


class TestWatermarkChannel:
    def test_fcfs_carries_the_watermark(self):
        result = bus_watermark_on_fcfs(n_bits=48)
        assert result.channel_works

    def test_temporal_partitioning_erases_it(self):
        """§4.5: 'temporal partitioning eliminates watermark attacks
        that leverage packet flow interference'."""
        result = bus_watermark_on_snic(n_bits=48)
        assert result.channel_closed

    def test_accuracy_bounds(self):
        result = bus_watermark_on_fcfs(n_bits=16)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.bits == 16


class TestCacheCovertChannel:
    def test_shared_cache_carries_bits(self):
        assert cache_covert_channel("shared").channel_works

    def test_soft_partitioning_still_leaks(self):
        """The §4.2 criticism of Intel CAT, as a working covert channel."""
        assert cache_covert_channel(SOFT).channel_works

    def test_hard_partitioning_closes_it(self):
        assert cache_covert_channel(HARD).channel_closed

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            cache_covert_channel("mystery")


class TestNonInterference:
    def test_sweep_finds_no_violations(self):
        assert check_noninterference(n_trials=4, steps_per_trial=25) == []

    def test_single_program_clean(self):
        program = AttackerProgram.random(50, seed=123)
        assert run_experiment(program) == []

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_noninterference_property(self, seed):
        """Hypothesis drives random attacker programs; the victim's
        observations must be bit-identical with and without them."""
        program = AttackerProgram.random(20, seed=seed)
        assert run_experiment(program) == []

    def test_programs_are_deterministic(self):
        a = AttackerProgram.random(10, seed=5)
        b = AttackerProgram.random(10, seed=5)
        assert a.steps == b.steps
