"""The flight recorder: ring semantics, sim-time windowing, tracer
mirroring, metric deltas, and the strict disabled no-op."""

from __future__ import annotations

from repro.obs import auditlog, flight
from repro.obs.bench import isolate
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.tracer import get_tracer


class TestRingSemantics:
    def test_capacity_bounds_the_ring(self):
        recorder = FlightRecorder(capacity=8)
        recorder.enable()
        for i in range(50):
            recorder.record("event", f"e{i}", ts_ns=float(i))
        assert len(recorder) == 8
        assert [e.name for e in recorder.entries()] == \
            [f"e{i}" for i in range(42, 50)]

    def test_window_evicts_by_sim_age(self):
        recorder = FlightRecorder(capacity=100, window_ns=10.0)
        recorder.enable()
        for ts in (0.0, 2.0, 5.0, 11.0, 14.0):
            recorder.record("event", f"t{ts}", ts_ns=ts)
        # now=14, window=10 → entries with ts < 4 are gone.
        assert [e.ts_ns for e in recorder.entries()] == [5.0, 11.0, 14.0]

    def test_tail_returns_json_ready_dicts(self):
        recorder = FlightRecorder()
        recorder.enable()
        recorder.record("audit", "tlb.install", ts_ns=3.0, tenant=1,
                        track="audit", args={"bank": "c0"})
        (entry,) = recorder.tail()
        assert entry == {"kind": "audit", "name": "tlb.install",
                         "ts_ns": 3.0, "tenant": 1, "track": "audit",
                         "args": {"bank": "c0"}}

    def test_tail_n_takes_the_most_recent(self):
        recorder = FlightRecorder()
        recorder.enable()
        for i in range(10):
            recorder.record("event", f"e{i}", ts_ns=float(i))
        assert [e["name"] for e in recorder.tail(3)] == ["e7", "e8", "e9"]

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_internal_tick_advances_without_a_clock(self):
        recorder = FlightRecorder()
        recorder.enable()
        recorder.record("event", "a")
        recorder.record("event", "b")
        ts = [e.ts_ns for e in recorder.entries()]
        assert ts == sorted(ts) and len(set(ts)) == 2


class TestDisabledNoOp:
    def test_disabled_record_is_a_no_op(self):
        recorder = FlightRecorder()
        recorder.record("event", "x", ts_ns=1.0)
        recorder.record_trace(object())  # not even attribute-touched
        assert len(recorder) == 0


class TestTracerMirror:
    def test_enable_attaches_mirror_and_disable_detaches(self):
        flight.enable_flight_recording()
        assert get_tracer().mirror is flight.get_flight_recorder()
        flight.disable_flight_recording()
        assert get_tracer().mirror is None

    def test_tracer_events_are_mirrored_into_the_ring(self):
        from repro.obs.tracer import enable_tracing, disable_tracing

        flight.enable_flight_recording()
        tracer = enable_tracing(clock=lambda: 100)
        try:
            tracer.instant("pkt.drop", tenant=3, track="net")
            tracer.complete("dma.xfer", ts_ns=50, dur_ns=10, tenant=1)
            tracer.counter_sample("queue_depth", 4.0)
        finally:
            disable_tracing()
            get_tracer().clear()
        kinds = [(e.kind, e.name) for e in
                 flight.get_flight_recorder().entries()]
        assert ("event", "pkt.drop") in kinds
        assert ("span", "dma.xfer") in kinds
        assert ("counter", "queue_depth") in kinds

    def test_mirror_keeps_only_the_tail_while_tracer_keeps_all(self):
        from repro.obs.tracer import enable_tracing, disable_tracing

        flight.enable_flight_recording(capacity=4)
        tracer = enable_tracing(clock=lambda: 0)
        try:
            for i in range(20):
                tracer.instant(f"e{i}", tenant=None)
            assert len(tracer.events) == 20
            assert len(flight.get_flight_recorder()) == 4
        finally:
            disable_tracing()
            isolate()  # a fresh recorder has the default ring capacity


class TestEnableDisableLifecycle:
    def test_enable_refreshes_the_audit_emitter(self):
        flight.enable_flight_recording()
        assert auditlog.get_emitter().active is True
        flight.disable_flight_recording()
        assert auditlog.get_emitter().active is False

    def test_capacity_override_rebuilds_preserving_entries(self):
        flight.enable_flight_recording()
        recorder = flight.get_flight_recorder()
        for i in range(6):
            recorder.record("event", f"e{i}", ts_ns=float(i))
        flight.enable_flight_recording(capacity=4)
        assert recorder.capacity == 4
        assert [e.name for e in recorder.entries()] == \
            ["e2", "e3", "e4", "e5"]

    def test_reset_restores_import_time_state(self):
        flight.enable_flight_recording(capacity=16, window_ns=50.0,
                                       clock=lambda: 9.0)
        flight.get_flight_recorder().record("event", "x")
        isolate()
        recorder = flight.get_flight_recorder()
        assert recorder.enabled is False
        assert len(recorder) == 0
        assert recorder.window_ns is None
        # Internal ticks resume from a cleared state.
        recorder.enable()
        recorder.record("event", "y")
        assert recorder.entries()[0].ts_ns == 1.0
