"""Time series: ring buffers, kernel-driven sampling on an observer
tick (deterministic cadence, stops with the work), aligned export."""

from __future__ import annotations

import pytest

from repro.hw.events import Simulator
from repro.obs.timeseries import Series, merge_series_csv, sample_function


class TestSeries:
    def test_points_and_latest(self):
        series = Series("x")
        assert series.latest() is None
        series.append(0.0, 1.0)
        series.append(10.0, 2.0)
        assert series.points() == [(0.0, 1.0), (10.0, 2.0)]
        assert series.latest() == (10.0, 2.0)
        assert len(series) == 2

    def test_ring_drops_the_oldest(self):
        series = Series("x", capacity=3)
        for i in range(5):
            series.append(float(i), float(i * i))
        assert series.times == [2.0, 3.0, 4.0]
        assert series.values == [4.0, 9.0, 16.0]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Series("x", capacity=0)


def drain(sim: Simulator) -> None:
    while sim.pending:
        sim.step()


def workload(sim: Simulator, counter: dict, at_ns) -> None:
    for t in at_ns:
        sim.schedule(t, lambda: counter.__setitem__(
            "n", counter["n"] + 1))


def watch(sim: Simulator, interval_ns: int, **probes):
    """Sample every probe into its series now and on each observer tick
    (the co-tenancy demo's pattern); series come in name order."""
    series = [Series(name) for name in sorted(probes)]

    def sample() -> None:
        for line in series:
            line.append(float(sim.now_ns), float(probes[line.name]()))

    sample()
    return series, sim.every(interval_ns, sample)


class TestSampler:
    def test_samples_on_the_grid_and_stops_when_idle(self):
        sim = Simulator()
        counter = {"n": 0}
        workload(sim, counter, [300, 1300, 2300, 3300, 4300])
        (series,), ticks = watch(sim, 1000,
                                 events_seen=lambda: counter["n"])
        drain(sim)  # terminates: the kernel stops re-arming the tick
        assert not ticks.active
        assert series.times == [0.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0]
        assert series.values == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_two_runs_are_byte_identical(self):
        def one_run() -> str:
            sim = Simulator()
            counter = {"n": 0}
            workload(sim, counter, [300, 1300, 2300])
            series, _ = watch(sim, 1000, events_seen=lambda: counter["n"])
            drain(sim)
            series[0].append(float(sim.now_ns), float(counter["n"]))
            return merge_series_csv(series, time_label="time_ns")

        assert one_run() == one_run()

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Simulator().every(0, lambda: None)

    def test_csv_rows_are_aligned_and_sorted(self):
        sim = Simulator()
        sim.schedule(200, lambda: None)
        series, _ = watch(sim, 100, b_metric=lambda: 2.0,
                          a_metric=lambda: 1.0)
        drain(sim)
        csv = merge_series_csv(series, time_label="time_ns")
        assert csv.splitlines() == ["time_ns,a_metric,b_metric", "0,1,2",
                                    "100,1,2", "200,1,2"]

    def test_stop_cancels_the_pending_tick(self):
        sim = Simulator()
        sim.schedule(10_000, lambda: None)
        (series,), ticks = watch(sim, 100, x=lambda: 1.0)
        ticks.cancel()
        assert not ticks.active
        drain(sim)  # the cancelled tick must not fire
        assert series.times == [0.0]


class TestSampleFunction:
    def test_grid_is_inclusive_and_accumulation_free(self):
        series = sample_function(lambda t: t, start=0.0, stop=150.0,
                                 step=0.5)
        assert len(series) == 301
        assert series.times[0] == 0.0
        assert series.times[-1] == 150.0  # exact, no fp drift
        assert series.values[100] == series.times[100]

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_function(lambda t: t, 0.0, 1.0, 0.0)


class TestMergeSeriesCsv:
    def test_shared_grid_merges_into_columns(self):
        a = sample_function(lambda t: t, 0.0, 2.0, 1.0, name="a")
        b = sample_function(lambda t: t * 10, 0.0, 2.0, 1.0, name="b")
        csv = merge_series_csv([a, b], time_label="time_s")
        assert csv.splitlines() == ["time_s,a,b", "0,0,0", "1,1,10",
                                    "2,2,20"]

    def test_mismatched_grids_are_rejected(self):
        a = sample_function(lambda t: t, 0.0, 2.0, 1.0, name="a")
        b = sample_function(lambda t: t, 0.0, 2.0, 0.5, name="b")
        with pytest.raises(ValueError):
            merge_series_csv([a, b])

    def test_empty_input(self):
        assert merge_series_csv([]) == "t\n"
