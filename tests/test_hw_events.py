"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.events import PeriodicHandle, Simulator, kernel_stats
from repro.obs.bench import isolate
from repro.obs.interference import InterferenceAccountant
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import Series
from repro.obs.windows import WindowedAggregator


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now_ns == 0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, lambda: fired.append("c"))
        sim.schedule(10, lambda: fired.append("a"))
        sim.schedule(20, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_is_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(5, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(42, lambda: None)
        sim.run()
        assert sim.now_ns == 42

    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(1))
        sim.schedule(100, lambda: fired.append(2))
        sim.run(until_ns=50)
        assert fired == [1]
        assert sim.now_ns == 50
        assert sim.pending == 1

    def test_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_rescheduling_from_callback(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now_ns)
            if len(fired) < 3:
                sim.schedule(10, tick)

        sim.schedule(10, tick)
        sim.run()
        assert fired == [10, 20, 30]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(50, lambda: fired.append(sim.now_ns))
        sim.run()
        assert fired == [50]

    def test_advance_window(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(1))
        sim.schedule(30, lambda: fired.append(2))
        sim.advance(15)
        assert fired == [1] and sim.now_ns == 15

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1, forever)

        sim.schedule(1, forever)
        executed = sim.run(max_events=100)
        assert executed == 100

    def test_step_empty_returns_false(self):
        assert Simulator().step() is False


class _RecordingProfiler:
    def __init__(self):
        self.calls = []

    def on_kernel_event(self, callback, host_ns, sim_ns):
        self.calls.append((callback, sim_ns))


class TestHeapEntries:
    def test_same_instant_fifo_across_interleaved_times(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, lambda: fired.append("a"))
        sim.schedule(1, lambda: fired.append("x"))
        sim.schedule(5, lambda: fired.append("b"))
        sim.schedule(3, lambda: fired.append("y"))
        sim.schedule(5, lambda: fired.append("c"))
        sim.run()
        assert fired == ["x", "y", "a", "b", "c"]

    def test_cancel_head(self):
        sim = Simulator()
        fired = []
        head = sim.schedule(1, lambda: fired.append("head"))
        sim.schedule(2, lambda: fired.append("next"))
        head.cancel()
        assert sim.pending == 1
        assert sim.peek_next_ns() == 2
        sim.run()
        assert fired == ["next"] and sim.now_ns == 2

    def test_cancel_middle(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: fired.append("a"))
        middle = sim.schedule(2, lambda: fired.append("b"))
        sim.schedule(3, lambda: fired.append("c"))
        middle.cancel()
        assert sim.pending == 2
        assert sim.run() == 2
        assert fired == ["a", "c"]

    def test_cancel_twice_is_harmless(self):
        sim = Simulator()
        handle = sim.schedule(4, lambda: None)
        sim.schedule(9, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending == 1
        assert sim.run() == 1

    def test_all_cancelled(self):
        sim = Simulator()
        handles = [sim.schedule(t, lambda: None) for t in (1, 2, 3)]
        for handle in handles:
            handle.cancel()
        assert sim.pending == 0
        assert sim.peek_next_ns() is None
        assert sim.step() is False
        assert sim.run() == 0 and sim.now_ns == 0

    def test_step_skips_cancelled_head(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: fired.append(1)).cancel()
        sim.schedule(6, lambda: fired.append(6))
        assert sim.step() is True
        assert fired == [6] and sim.now_ns == 6

    def test_time_ns_survives_cancel(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        handle = sim.schedule(15, lambda: None)
        handle.cancel()
        assert handle.time_ns == 25

    def test_cancel_after_firing_is_harmless(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1, lambda: fired.append(1))
        sim.run()
        handle.cancel()
        assert fired == [1] and sim.pending == 0

    def test_profiler_receives_callback_object(self):
        sim = Simulator()
        profiler = _RecordingProfiler()
        sim.set_profiler(profiler)

        def first():
            pass

        def second():
            own.cancel()  # a callback cancelling its own, running entry

        sim.schedule(3, first)
        own = sim.schedule(8, second)
        sim.run()
        assert profiler.calls == [(first, 3), (second, 5)]

    def test_kernel_stats_count_only_live_events(self):
        isolate()
        sim = Simulator()
        sim.schedule(2, lambda: None)
        sim.schedule(5, lambda: None).cancel()
        sim.schedule(7, lambda: None)
        sim.run()
        assert kernel_stats() == {"events_executed": 2, "sim_ns_advanced": 7}


def _sampler(sim, interval_ns, probe):
    """A series sampled now and on every observer tick."""
    series = Series("probe")

    def sample():
        series.append(float(sim.now_ns), float(probe()))

    sample()
    sim.every(interval_ns, sample)
    return series


def _observed_run(with_sampler, with_windows):
    """One work event at 1,000 ns under 100 ns observers."""
    sim = Simulator()
    registry = MetricsRegistry()
    work = registry.histogram("slo_work_ns")
    sim.schedule(1_000, lambda: work.observe(1.0))
    series = _sampler(sim, 100, lambda: work.count) if with_sampler else None
    windows = None
    if with_windows:
        windows = WindowedAggregator(
            sim, window_ns=100, accountant=InterferenceAccountant(registry))
        windows.start()
    executed = sim.run(max_events=1_000)  # bounds a failing run
    rows = {}
    if series is not None:
        rows["samples"] = series.points()
    if windows is not None:
        rows["windows"] = [(w.start_ns, w.end_ns,
                            w.histogram("slo_work_ns") is not None)
                           for w in windows.snapshots]
    return executed, sim.now_ns, sim.pending, rows


class TestObservers:
    def test_each_observer_alone_stops_with_the_work(self):
        assert _observed_run(True, False)[:3] == (11, 1_000, 0)
        assert _observed_run(False, True)[:3] == (11, 1_000, 0)

    def test_two_observers_do_not_keep_each_other_alive(self):
        executed, now_ns, pending, rows = _observed_run(True, True)
        assert (executed, now_ns, pending) == (21, 1_000, 0)
        assert len(rows["windows"]) == 10 and len(rows["samples"]) == 11
        assert rows["samples"] == _observed_run(True, False)[3]["samples"]
        assert rows["windows"] == _observed_run(False, True)[3]["windows"]

    def test_last_tick_is_the_first_grid_point_after_the_work(self):
        sim = Simulator()
        ticks = []
        sim.schedule(250, lambda: None)
        sim.every(100, lambda: ticks.append(sim.now_ns))
        sim.run()
        assert ticks == [100, 200, 300] and sim.now_ns == 300

    def test_observer_ticks_count_as_pending(self):
        sim = Simulator()
        sim.schedule(500, lambda: None)
        handle = sim.every(100, lambda: None)
        assert isinstance(handle, PeriodicHandle) and handle.active
        assert sim.pending == 2
        sim.run(until_ns=500)
        assert sim.pending == 0 and not handle.active

    def test_cancelled_every_never_fires_again(self):
        sim = Simulator()
        fired = []
        sim.schedule(1_000, lambda: None)
        handle = sim.every(100, lambda: fired.append(sim.now_ns))
        sim.run(until_ns=250)
        handle.cancel()
        handle.cancel()
        assert not handle.active and sim.pending == 1
        sim.run()
        assert fired == [100, 200] and sim.now_ns == 1_000

    def test_cancel_from_inside_the_tick(self):
        sim = Simulator()
        fired = []
        sim.schedule(1_000, lambda: None)

        def tick():
            fired.append(sim.now_ns)
            if len(fired) == 3:
                handle.cancel()

        handle = sim.every(100, tick)
        sim.run()
        assert fired == [100, 200, 300] and sim.now_ns == 1_000

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Simulator().every(0, lambda: None)


#: One kernel operation: (kind, argument).
_OPS = st.lists(st.tuples(
    st.sampled_from(["schedule", "every", "cancel", "step", "run_until"]),
    st.integers(min_value=0, max_value=60)), max_size=40)


class TestPendingCount:
    @settings(max_examples=200, deadline=None)
    @given(_OPS)
    def test_pending_matches_a_heap_scan(self, ops):
        sim = Simulator()
        handles = []
        for kind, arg in ops:
            if kind == "schedule":
                handles.append(sim.schedule(arg, lambda: None))
            elif kind == "every":
                handles.append(sim.every(arg + 1, lambda: None))
            elif kind == "cancel" and handles:
                # Any handle: live, fired or already cancelled.
                handles[arg % len(handles)].cancel()
            elif kind == "step":
                sim.step()
            elif kind == "run_until":
                sim.run(until_ns=sim.now_ns + arg)
            live = [entry for entry in sim._queue if entry[2] is not None]
            assert sim.pending == len(live)
            assert sim._observers == sum(
                isinstance(getattr(entry[2], "__self__", None),
                           PeriodicHandle) for entry in live)
