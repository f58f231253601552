"""Tests for repro.obs.profile — the deterministic sim-time profiler.

Covers span-nesting attribution (self vs cumulative), collapsed-stack
export, coverage accounting, kernel wall-time hooks, and the end-to-end
co-tenancy profile used by ``python -m repro bench --profile``.
"""

from __future__ import annotations

import pytest

from repro.hw.events import Simulator, kernel_stats
from repro.obs.bench import isolate
from repro.obs.profile import (
    FrameStat,
    Profiler,
    layer_frame,
    profile_cotenancy_scenario,
    tenant_frame,
)
from repro.obs.tracer import Tracer


def make_span(tracer: Tracer, name: str, ts: float, dur: float, *,
              cat: str = "core", tenant: int = 1, track: str = "c0") -> None:
    tracer.complete(name, ts_ns=ts, dur_ns=dur, cat=cat, tenant=tenant,
                    track=track)


@pytest.fixture
def tracer():
    t = Tracer(enabled=True)
    yield t
    t.disable()


class TestFrames:
    def test_layer_frame(self):
        assert layer_frame("core") == "layer:core"
        assert layer_frame("") == "layer:unknown"

    def test_tenant_frame(self):
        assert tenant_frame(3) == "tenant:3"
        assert tenant_frame(None) == "tenant:infra"


class TestSpanAttribution:
    def test_flat_span_is_all_self_time(self, tracer):
        make_span(tracer, "rx", ts=0, dur=100)
        prof = Profiler()
        assert prof.ingest(tracer) == 1
        stats = {s.leaf: s for s in prof.frame_stats()}
        assert stats["rx"].self_ns == pytest.approx(100)
        assert stats["rx"].cumulative_ns == pytest.approx(100)

    def test_nested_span_subtracts_child_from_parent_self(self, tracer):
        make_span(tracer, "parent", ts=0, dur=100)
        make_span(tracer, "child", ts=20, dur=30)
        prof = Profiler()
        prof.ingest(tracer)
        stats = {s.leaf: s for s in prof.frame_stats()}
        assert stats["parent"].self_ns == pytest.approx(70)
        assert stats["parent"].cumulative_ns == pytest.approx(100)
        assert stats["child"].self_ns == pytest.approx(30)
        # The child's stack hangs under the parent's frames.
        assert stats["child"].stack[-2:] == ("parent", "child")

    def test_sibling_spans_do_not_nest(self, tracer):
        make_span(tracer, "a", ts=0, dur=40)
        make_span(tracer, "b", ts=50, dur=40)
        prof = Profiler()
        prof.ingest(tracer)
        stats = {s.leaf: s for s in prof.frame_stats()}
        assert stats["a"].stack[-1] == "a"
        assert stats["b"].stack[-1] == "b"
        assert "a" not in stats["b"].stack

    def test_lanes_are_independent(self, tracer):
        # Same timestamps, different (tenant, track) lanes: no nesting.
        make_span(tracer, "x", ts=0, dur=100, tenant=1, track="c0")
        make_span(tracer, "y", ts=10, dur=50, tenant=2, track="c1")
        prof = Profiler()
        prof.ingest(tracer)
        stats = {s.leaf: s for s in prof.frame_stats()}
        assert stats["x"].self_ns == pytest.approx(100)
        assert stats["y"].self_ns == pytest.approx(50)
        assert stats["y"].stack[0] == "layer:core"
        assert "x" not in stats["y"].stack

    def test_stack_root_is_layer_then_tenant(self, tracer):
        make_span(tracer, "op", ts=0, dur=10, cat="dma", tenant=7)
        prof = Profiler()
        prof.ingest(tracer)
        (stat,) = prof.frame_stats()
        assert stat.stack[:2] == ("layer:dma", "tenant:7")

    def test_coverage_full_when_all_lanes_named(self, tracer):
        make_span(tracer, "op", ts=0, dur=100, cat="core", tenant=1)
        prof = Profiler()
        prof.ingest(tracer)
        assert prof.coverage() == pytest.approx(1.0)

    def test_coverage_drops_for_unnamed_lane(self, tracer):
        make_span(tracer, "named", ts=0, dur=75, cat="core", tenant=1)
        tracer.complete("anon", ts_ns=0, dur_ns=25, cat="", tenant=None,
                        track="?")
        prof = Profiler()
        prof.ingest(tracer)
        assert prof.coverage() == pytest.approx(0.75)

    def test_nonspan_events_are_ignored(self, tracer):
        tracer.instant("marker", ts_ns=5, cat="core", tenant=1)
        tracer.counter_sample("occupancy", 3.0, ts_ns=5, tenant=1)
        prof = Profiler()
        assert prof.ingest(tracer) == 0
        assert prof.frame_stats() == []
        assert prof.total_sim_ns == 0.0


class TestCollapsedExport:
    def test_collapsed_line_format(self, tracer):
        make_span(tracer, "parent", ts=0, dur=100)
        make_span(tracer, "child", ts=0, dur=40)
        prof = Profiler()
        prof.ingest(tracer)
        lines = prof.collapsed()
        by_leaf = {line.rsplit(" ", 1)[0].split(";")[-1]: line
                   for line in lines}
        stack, value = by_leaf["child"].rsplit(" ", 1)
        assert stack == "layer:core;tenant:1;parent;child"
        assert int(value) == 40
        assert by_leaf["parent"].rsplit(" ", 1)[1] == "60"

    def test_zero_self_frames_are_omitted(self, tracer):
        make_span(tracer, "parent", ts=0, dur=50)
        make_span(tracer, "child", ts=0, dur=50)  # consumes all of parent
        prof = Profiler()
        prof.ingest(tracer)
        leaves = [line.rsplit(" ", 1)[0].split(";")[-1]
                  for line in prof.collapsed()]
        assert leaves == ["child"]

    def test_write_collapsed(self, tracer, tmp_path):
        make_span(tracer, "op", ts=0, dur=10)
        prof = Profiler()
        prof.ingest(tracer)
        path = prof.write_collapsed(str(tmp_path / "prof.collapsed"))
        text = (tmp_path / "prof.collapsed").read_text()
        assert path.endswith("prof.collapsed")
        assert text == "layer:core;tenant:1;op 10\n"

    def test_cumulative_by_frame_merges_across_stacks(self, tracer):
        make_span(tracer, "op", ts=0, dur=60, tenant=1)
        make_span(tracer, "op", ts=0, dur=40, tenant=2, track="c1")
        prof = Profiler()
        prof.ingest(tracer)
        cum = prof.cumulative_by_frame()
        assert cum["op"] == pytest.approx(100)
        assert cum["tenant:1"] == pytest.approx(60)
        assert cum["layer:core"] == pytest.approx(100)


class TestKernelHook:
    def test_attach_detach_and_wall_attribution(self):
        isolate()
        sim = Simulator()
        prof = Profiler()
        prof.attach_kernel(sim)

        def tick():
            pass

        sim.schedule(10, tick)
        sim.schedule(25, tick)
        sim.run()
        prof.detach_kernel(sim)

        rows = prof.host_report()
        assert len(rows) == 1
        row = rows[0]
        assert "tick" in row["operation"]
        assert row["events"] == 2
        assert row["sim_ns"] == 25
        assert row["host_ns"] > 0
        assert kernel_stats()["events_executed"] == 2

    def test_detached_kernel_records_nothing_more(self):
        sim = Simulator()
        prof = Profiler()
        prof.attach_kernel(sim)
        prof.detach_kernel(sim)
        sim.schedule(5, lambda: None)
        sim.run()
        assert prof.host_report() == []

    def test_measure_brackets_wall_time(self):
        prof = Profiler()
        with prof.measure():
            sum(range(1000))
        assert prof.wall_ns > 0


class TestReportAndSummary:
    def test_report_sorted_by_self_time(self, tracer):
        make_span(tracer, "big", ts=0, dur=90)
        make_span(tracer, "small", ts=100, dur=10)
        prof = Profiler()
        prof.ingest(tracer)
        rows = prof.report(top=5)
        assert rows[0]["leaf"] == "big"
        assert rows[0]["self_ns"] == pytest.approx(90)
        assert rows[0]["self_pct"] == pytest.approx(90.0)

    def test_format_report_mentions_coverage(self, tracer):
        make_span(tracer, "op", ts=0, dur=10)
        prof = Profiler()
        prof.ingest(tracer)
        text = prof.format_report()
        assert "attributed to named" in text
        assert "op" in text

    def test_summary_fields(self, tracer):
        make_span(tracer, "op", ts=0, dur=10)
        prof = Profiler()
        prof.ingest(tracer)
        s = prof.summary()
        assert s["stacks"] == 1
        assert s["coverage"] == pytest.approx(1.0)
        assert s["total_sim_ns"] == pytest.approx(10)


class TestCotenancyProfile:
    def test_profile_cotenancy_meets_coverage_floor(self, tmp_path):
        out = tmp_path / "cotenancy.collapsed"
        result = profile_cotenancy_scenario(collapsed_path=str(out),
                                            n_packets=16)
        prof = result["profiler"]
        # Acceptance bar: >=95% of simulated time lands on named
        # (layer, tenant) frames.
        assert prof.coverage() >= 0.95
        assert prof.total_sim_ns > 0
        assert out.exists() and out.read_text().strip()
        # Both tenants and several layers appear in the profile.
        cum = prof.cumulative_by_frame()
        tenants = [f for f in cum if f.startswith("tenant:")]
        layers = [f for f in cum if f.startswith("layer:")]
        assert len(tenants) >= 2
        assert len(layers) >= 3
        assert result["report"]
