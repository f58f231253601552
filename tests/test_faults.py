"""repro.faults: plans are seeded schedules, injection is interposed,
watchdogs and retries run on sim-time, and the chaos report replays."""

from __future__ import annotations

import io

import pytest

from repro.core.errors import (
    FaultInjected,
    RecoveryExhausted,
    WatchdogTimeout,
)
from repro.faults import (
    BackoffPolicy,
    FaultInjector,
    FaultKind,
    FaultPlan,
    Watchdog,
    retry_dma,
)
from repro.faults.chaos import main as chaos_main, run_chaos
from repro.faults.plan import ALL_FAULT_KINDS
from repro.hw.bus import FCFSArbiter
from repro.hw.dma import DMAController, DMAWindow
from repro.hw.events import Simulator
from repro.hw.memory import HostMemory, PhysicalMemory
from repro.obs.bench import format_json


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        def build(seed):
            plan = FaultPlan(seed)
            plan.burst(FaultKind.WIRE_DROP, 1, start_ns=0, count=5,
                       period_ns=1_000, jitter_ns=300)
            plan.rate(FaultKind.DMA_ERROR, 2, start_ns=0,
                      duration_ns=20_000, mean_period_ns=2_000)
            return [(e.at_ns, e.kind, e.tenant) for e in plan.events()]

        assert build(7) == build(7)
        assert build(7) != build(8)

    def test_events_sorted_and_stable(self):
        plan = FaultPlan()
        plan.at(500, FaultKind.NF_CRASH, tenant=1)
        first = plan.at(100, FaultKind.DMA_ERROR, tenant=1)
        second = plan.at(100, FaultKind.DMA_PARTIAL, tenant=2)
        events = plan.events()
        assert [e.at_ns for e in events] == [100, 100, 500]
        assert events[0] is first and events[1] is second

    def test_events_for_and_len(self):
        plan = FaultPlan()
        plan.burst(FaultKind.BUS_BABBLE, 2, start_ns=0, count=3,
                   period_ns=100)
        plan.at(50, FaultKind.NF_CRASH, tenant=1)
        assert len(plan) == 4
        assert len(plan.events_for(FaultKind.BUS_BABBLE)) == 3

    def test_params_reach_events(self):
        plan = FaultPlan()
        event = plan.at(10, FaultKind.DMA_PARTIAL, tenant=1, fraction=0.25)
        assert event.param("fraction") == 0.25
        assert event.param("missing", "fallback") == "fallback"

    def test_negative_instant_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().at(-1, FaultKind.NF_CRASH)

    def test_taxonomy_is_complete(self):
        assert len(ALL_FAULT_KINDS) == 12
        assert FaultKind.BUS_BABBLE in ALL_FAULT_KINDS


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------

def _dma_rig(nf_id=1):
    controller = DMAController(n_banks=1)
    bank = controller.bank_for_core(0)
    window = 64 * 1024
    nic_mem = PhysicalMemory(2 * window)
    host_mem = HostMemory(2 * window)
    bank.configure(owner=nf_id, nic_window=DMAWindow(0, window),
                   host_window=DMAWindow(0, window))
    return bank, host_mem, nic_mem


class TestFaultInjector:
    def test_install_uninstall_restores_originals(self):
        original = DMAController.__dict__  # noqa: F841 — force class load
        to_nic = __import__("repro.hw.dma", fromlist=["DMABank"]).DMABank.to_nic
        injector = FaultInjector(FaultPlan()).install()
        assert injector.installed
        injector.uninstall()
        restored = __import__(
            "repro.hw.dma", fromlist=["DMABank"]).DMABank.to_nic
        assert restored is to_nic

    def test_dma_error_raises_with_completion(self):
        plan = FaultPlan()
        plan.at(0, FaultKind.DMA_ERROR, tenant=1)
        with FaultInjector(plan) as injector:
            injector.arm_all()
            bank, host_mem, nic_mem = _dma_rig()
            with pytest.raises(FaultInjected) as exc_info:
                bank.to_nic(host_mem, nic_mem, 0, 0, 4_096, now_ns=0.0)
            assert exc_info.value.bytes_done == 0
            assert exc_info.value.completion_ns is not None
            assert injector.records[-1].kind is FaultKind.DMA_ERROR

    def test_dma_partial_lands_a_prefix(self):
        plan = FaultPlan()
        plan.at(0, FaultKind.DMA_PARTIAL, tenant=1, fraction=0.5)
        with FaultInjector(plan) as injector:
            injector.arm_all()
            bank, host_mem, nic_mem = _dma_rig()
            host_mem.write(0, b"\xAB" * 4_096)
            with pytest.raises(FaultInjected) as exc_info:
                bank.to_nic(host_mem, nic_mem, 0, 0, 4_096, now_ns=0.0)
            assert exc_info.value.bytes_done == 2_048
            assert nic_mem.read(0, 2_048) == b"\xAB" * 2_048

    def test_wildcard_tenant_matches_anyone(self):
        plan = FaultPlan()
        plan.at(0, FaultKind.DMA_ERROR)  # tenant=None: wildcard
        with FaultInjector(plan) as injector:
            injector.arm_all()
            bank, host_mem, nic_mem = _dma_rig(nf_id=42)
            with pytest.raises(FaultInjected):
                bank.to_nic(host_mem, nic_mem, 0, 0, 64, now_ns=0.0)

    def test_bus_babble_occupies_the_arbiter(self):
        plan = FaultPlan()
        plan.at(0, FaultKind.BUS_BABBLE, tenant=2, amplify=4,
                babble_bytes=4_096)
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=12.8)
        clean = arbiter.request(2, 1_024, 0.0)
        with FaultInjector(plan) as injector:
            injector.arm_all()
            babbled = arbiter.request(2, 1_024, clean)
        assert babbled - clean > clean  # the babble queued ahead of it

    def test_dram_bit_flip_corrupts_and_logs(self):
        memory = PhysicalMemory(64 * 1024)
        plan = FaultPlan(seed=3)
        plan.at(0, FaultKind.DRAM_BIT_FLIP, tenant=1, base=0,
                size=64 * 1024, n_flips=16)
        with FaultInjector(plan) as injector:
            injector.arm_all({FaultKind.DRAM_BIT_FLIP: memory})
            assert len(injector.flips) == 16
            addr, mask = injector.flips[0]
            page, offset = divmod(addr, memory.page_size)
            assert memory._pages[page][offset] & mask


# ----------------------------------------------------------------------
# Watchdog / retry
# ----------------------------------------------------------------------

class TestWatchdog:
    def test_unpetted_watchdog_fires_handler(self):
        sim = Simulator()
        watchdog = Watchdog(sim)
        fired = []
        watchdog.arm("nf", 1_000, on_timeout=fired.append, tenant=1)
        sim.advance(2_000)
        assert len(fired) == 1
        assert watchdog.timeouts[0][0] == "nf"

    def test_petting_defers_the_deadline(self):
        sim = Simulator()
        watchdog = Watchdog(sim)
        fired = []
        watchdog.arm("nf", 1_000, on_timeout=fired.append)
        sim.advance(800)
        watchdog.pet("nf")
        sim.advance(800)   # only 800 since the pet: still alive
        assert not fired
        sim.advance(400)
        assert fired

    def test_no_handler_raises_out_of_the_kernel(self):
        sim = Simulator()
        Watchdog(sim).arm("nf", 500)
        with pytest.raises(WatchdogTimeout):
            sim.advance(1_000)

    def test_pet_unarmed_is_an_error(self):
        with pytest.raises(KeyError):
            Watchdog(Simulator()).pet("ghost")

    def test_disarm_cancels(self):
        sim = Simulator()
        watchdog = Watchdog(sim)
        watchdog.arm("nf", 500)
        watchdog.disarm("nf")
        sim.advance(1_000)
        assert not watchdog.timeouts and watchdog.armed == []


class TestRetryDMA:
    def test_recovers_after_transient_faults(self):
        calls = []

        def op(bytes_done, now_ns):
            calls.append((bytes_done, now_ns))
            if len(calls) < 3:
                raise FaultInjected("transient", kind="dma_error",
                                    completion_ns=now_ns + 100,
                                    bytes_done=64)
            return now_ns + 10

        policy = BackoffPolicy(attempts=4, base_ns=500, factor=2,
                               max_ns=8_000)
        completion = retry_dma(op, policy=policy, now_ns=0.0, tenant=1)
        assert completion == calls[-1][1] + 10
        assert [done for done, _ in calls] == [0, 64, 128]
        # each retry waits out the faulted completion plus the backoff
        assert calls[1][1] == 100 + 500
        assert calls[2][1] == calls[1][1] + 100 + 1_000

    def test_budget_exhaustion_chains_the_fault(self):
        def op(bytes_done, now_ns):
            raise FaultInjected("hard", kind="dma_error",
                                completion_ns=now_ns, bytes_done=0)

        with pytest.raises(RecoveryExhausted):
            retry_dma(op, policy=BackoffPolicy(attempts=2), now_ns=0.0)

    def test_backoff_is_bounded(self):
        policy = BackoffPolicy(attempts=10, base_ns=500, factor=2,
                               max_ns=2_000)
        assert [policy.backoff_ns(i) for i in range(4)] == \
            [500, 1_000, 2_000, 2_000]


# ----------------------------------------------------------------------
# The chaos differential
# ----------------------------------------------------------------------

class TestChaos:
    def test_single_kind_report_is_deterministic(self):
        first = run_chaos(seed=11, quick=True, kinds=["wire_drop"])
        second = run_chaos(seed=11, quick=True, kinds=["wire_drop"])
        assert format_json(first) == format_json(second)

    def test_blast_radius_verdict_for_a_headline_kind(self):
        report = run_chaos(seed=0, quick=True, kinds=["bus_babble"])
        entry = report["kinds"]["bus_babble"]
        assert entry["commodity"]["disruption_total"] > 0
        assert entry["snic"]["disruption_total"] == 0
        assert entry["snic"]["cross_tenant_wait_ns"] == 0
        assert report["verdict"]["pass"]

    def test_cli_exit_code_follows_the_verdict(self):
        stream = io.StringIO()
        code = chaos_main(["--quick", "--kind", "wire_drop"], stream=stream)
        assert code == 0
        assert "VERDICT: PASS" in stream.getvalue()

    def test_cli_json_format_is_parseable(self):
        import json

        stream = io.StringIO()
        chaos_main(["--quick", "--kind", "wire_drop", "--format", "json"],
                   stream=stream)
        payload = json.loads(stream.getvalue())
        assert payload["isosan_active"] is True
        assert "wire_drop" in payload["kinds"]
