"""Micro-tests for the disabled-tracer fast path.

The tracing discipline (see :mod:`repro.obs.tracer`) promises that a
disabled tracer costs one attribute load and a falsy branch on the hot
path — no event allocation, no clock read.  These tests pin that down
two ways: a real scenario run with tracing off must record *zero*
events, and a timed hot loop against the disabled tracer must stay
within a few percent of the same loop against a tracer-free stub.
The audit log's call-site guard is held to the same bound.
"""

from __future__ import annotations

from time import perf_counter_ns

from repro.core import NFConfig, NICOS, SNIC
from repro.core.runtime import SNICRuntime
from repro.core.vpp import VPPConfig
from repro.net.packet import Packet
from repro.net.rules import MatchRule
from repro.nf import Monitor
from repro.obs import get_tracer
from repro.obs.auditlog import AuditLog
from repro.obs.tracer import Tracer

MB = 1024 * 1024


def run_small_scenario(n_packets: int = 10):
    snic = SNIC(n_cores=2, dram_bytes=64 * MB, key_seed=5)
    nic_os = NICOS(snic)
    vnic = nic_os.NF_create(NFConfig(
        name="mon", core_ids=(0,), memory_bytes=4 * MB,
        vpp=VPPConfig(rules=[MatchRule()])))
    runtime = SNICRuntime(snic)
    runtime.attach(vnic.nf_id, Monitor())
    packets = []
    for i in range(n_packets):
        p = Packet.make("10.0.0.1", "20.0.0.1", src_port=1000 + i,
                        dst_port=80)
        p.arrival_ns = (i + 1) * 1_000
        packets.append(p)
    runtime.inject(packets)
    stats = runtime.run()
    nic_os.NF_destroy(vnic.nf_id)
    return stats


class TestDisabledPathAllocatesNothing:
    def test_full_scenario_records_zero_events(self):
        tracer = get_tracer()
        tracer.disable()
        tracer.clear()
        stats = run_small_scenario()
        assert stats.completed == 10
        # The hot layers (cores, cache, bus, dma, accelerators, runtime,
        # NIC OS lifecycle) all ran — and allocated no trace events.
        assert len(tracer.events) == 0

    def test_disabled_span_is_one_shared_object(self):
        tracer = Tracer(enabled=False)
        a = tracer.span("x", tenant=1)
        b = tracer.span("y", tenant=2, track="other")
        assert a is b  # shared no-op singleton: zero per-call allocation

    def test_disabled_complete_and_instant_record_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.complete("op", ts_ns=0, dur_ns=5, tenant=1)
        tracer.instant("mark", tenant=1)
        tracer.counter_sample("v", 1.0)
        assert tracer.events == []


class _StubSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_STUB_SPAN = _StubSpan()


class _StubTracer:
    """Tracer-free baseline: same interface, no enabled check beyond
    the one the hot-path discipline itself performs."""

    enabled = False

    def complete(self, name, ts_ns, dur_ns, **kw):
        raise AssertionError("stub must never record")


def hot_loop(tracer, n: int) -> int:
    """A hot loop instrumented exactly like the simulation layers:
    ``if tracer.enabled:`` guarding every emission."""
    acc = 0
    for i in range(n):
        if tracer.enabled:
            tracer.complete("op", i, 10.0, tenant=1, track="t", cat="core")
        acc += (i * 3) ^ (i >> 2)
    return acc


class TestDisabledPathTiming:
    def test_disabled_tracer_within_5pct_of_stub(self):
        real = Tracer(enabled=False)
        stub = _StubTracer()
        n = 50_000

        # Warm up both paths so the comparison sees steady-state code.
        hot_loop(real, n)
        hot_loop(stub, n)

        # Interleaved min-of-N: alternate the two variants within each
        # round so scheduler noise hits both equally; the minimum over
        # rounds estimates the noise-free cost of each path.  Retry the
        # whole measurement a few times before declaring failure so one
        # noisy CI machine burst cannot flake the suite.
        for attempt in range(4):
            best_real = best_stub = float("inf")
            for _ in range(9):
                t0 = perf_counter_ns()
                hot_loop(real, n)
                best_real = min(best_real, perf_counter_ns() - t0)
                t0 = perf_counter_ns()
                hot_loop(stub, n)
                best_stub = min(best_stub, perf_counter_ns() - t0)
            if best_real <= best_stub * 1.05:
                break
        assert best_real <= best_stub * 1.05, (
            f"disabled tracer {best_real} ns vs stub {best_stub} ns "
            f"({100.0 * (best_real / best_stub - 1.0):+.1f}%)")

    def test_enabled_tracer_actually_records_in_same_loop(self):
        # Sanity check that the loop above is really on the emit path.
        tracer = Tracer(enabled=True)
        hot_loop(tracer, 100)
        assert len(tracer.events) == 100


class _StubAuditLog:
    """Audit-log-free baseline: same guard attribute, no hooks."""

    enabled = False

    def append(self, kind, **detail):
        raise AssertionError("stub must never record")


def audit_hot_loop(audit, n: int) -> int:
    """A hot loop instrumented exactly like the audit call sites:
    ``if audit.enabled:`` guarding every append."""
    acc = 0
    for i in range(n):
        if audit.enabled:
            audit.append("memory.scrub", tenant=1, ts_ns=float(i), pages=4)
        acc += (i * 3) ^ (i >> 2)
    return acc


class TestDisabledAuditLog:
    def test_disabled_log_records_nothing(self):
        log = AuditLog()
        audit_hot_loop(log, 100)
        assert len(log) == 0

    def test_disabled_log_within_5pct_of_stub(self):
        """The audit log inherits the tracer's overhead contract:
        disabled, its guard is one attribute load and a falsy branch."""
        real = AuditLog()
        stub = _StubAuditLog()
        n = 50_000

        audit_hot_loop(real, n)
        audit_hot_loop(stub, n)

        # Same interleaved min-of-N + retry discipline as the tracer
        # bound above.
        for attempt in range(4):
            best_real = best_stub = float("inf")
            for _ in range(9):
                t0 = perf_counter_ns()
                audit_hot_loop(real, n)
                best_real = min(best_real, perf_counter_ns() - t0)
                t0 = perf_counter_ns()
                audit_hot_loop(stub, n)
                best_stub = min(best_stub, perf_counter_ns() - t0)
            if best_real <= best_stub * 1.05:
                break
        assert best_real <= best_stub * 1.05, (
            f"disabled audit log {best_real} ns vs stub "
            f"{best_stub} ns "
            f"({100.0 * (best_real / best_stub - 1.0):+.1f}%)")

    def test_enabled_log_actually_records_in_same_loop(self):
        log = AuditLog()
        log.enable()
        audit_hot_loop(log, 100)
        assert len(log) == 100
        assert log.verify_chain() is None

    def test_disabled_guard_is_one_attribute_load(self):
        """The call sites guard with ``if CELL.audit.enabled:`` — with
        the log off the flag is a plain False instance attribute (no
        property, no call)."""
        from repro.obs.cell import CELL

        assert CELL.audit.enabled is False
        assert "enabled" in vars(CELL.audit)
        assert not hasattr(AuditLog, "enabled")
