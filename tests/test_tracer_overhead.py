"""Micro-tests for the disabled-tracer fast path.

The tracing discipline (see :mod:`repro.obs.tracer`) promises that a
disabled tracer costs one attribute load and a falsy branch on the hot
path — no event allocation, no clock read.  These tests pin that down
two ways: a real scenario run with tracing off must record *zero*
events, and a timed hot loop against the disabled tracer must stay
within a few percent of the same loop against a tracer-free stub.
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


class _StubFlight:
    """Flight-recorder-free baseline: same guard attribute, no hooks."""

    enabled = False

    def record(self, kind, name, **kw):
        raise AssertionError("stub must never record")


def flight_hot_loop(flight, n: int) -> int:
    """A hot loop instrumented exactly like the audit/flight hooks:
    ``if flight.enabled:`` guarding every emission."""
    acc = 0
    for i in range(n):
        if flight.enabled:
            flight.record("audit", "memory.scrub", ts_ns=float(i),
                          tenant=1, args={"pages": 4})
        acc += (i * 3) ^ (i >> 2)
    return acc


class TestDisabledFlightRecorder:
    def test_disabled_recorder_records_nothing(self):
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder()
        flight_hot_loop(flight, 100)
        flight.record("audit", "x")
        assert len(flight) == 0

    def test_disabled_recorder_within_5pct_of_stub(self):
        """The flight recorder inherits the tracer's overhead contract:
        disabled, its guard is one attribute load and a falsy branch."""
        from repro.obs.flight import FlightRecorder

        real = FlightRecorder()
        stub = _StubFlight()
        n = 50_000

        flight_hot_loop(real, n)
        flight_hot_loop(stub, n)

        # Same interleaved min-of-N + retry discipline as the tracer
        # bound above.
        for attempt in range(4):
            best_real = best_stub = float("inf")
            for _ in range(9):
                t0 = perf_counter_ns()
                flight_hot_loop(real, n)
                best_real = min(best_real, perf_counter_ns() - t0)
                t0 = perf_counter_ns()
                flight_hot_loop(stub, n)
                best_stub = min(best_stub, perf_counter_ns() - t0)
            if best_real <= best_stub * 1.05:
                break
        assert best_real <= best_stub * 1.05, (
            f"disabled flight recorder {best_real} ns vs stub "
            f"{best_stub} ns "
            f"({100.0 * (best_real / best_stub - 1.0):+.1f}%)")

    def test_enabled_recorder_actually_records_in_same_loop(self):
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder(capacity=1024)
        flight.enable()
        flight_hot_loop(flight, 100)
        assert len(flight) == 100

    def test_inactive_audit_emitter_is_one_attribute_load(self):
        """The instrumentation sites guard with ``if _AUDIT.active:`` —
        with both sinks off the flag is plain False (no property, no
        call)."""
        from repro.obs.auditlog import AuditEmitter, get_emitter

        emitter = get_emitter()
        assert emitter.active is False
        assert "active" in AuditEmitter.__slots__
