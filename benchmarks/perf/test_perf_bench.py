"""Tests of the benchmark itself: ``python -m pytest benchmarks/perf``."""

from __future__ import annotations

import importlib
import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Spec generation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_inputs_are_a_pure_function_of_the_seed(name, tmp_path):
    def generate(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        argv = workloads.prepare(name, seed, str(workdir))
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        return [a.replace(str(workdir), "<dir>") for a in argv], files

    assert generate(7, "a") == generate(7, "b")
    if workloads.WORKLOADS[name].spec is not None:
        assert generate(7, "c")[1] != generate(8, "d")[1]
    else:
        assert generate(7, "c")[0] != generate(8, "d")[0]


def test_specs_validate_and_carry_the_documented_sizes():
    from repro.scenario.spec import ScenarioSpec

    idle = ScenarioSpec.from_dict(workloads.idle_spec(7))
    assert len(idle.tenants) == 256
    assert idle.traffic.n_packets == 2048
    assert idle.traffic.arrival_period_ns == 10_000
    assert idle.topology.arbiter.policy == "temporal"
    dense = ScenarioSpec.from_dict(workloads.dense_spec(7))
    assert sorted(t.nf.kind for t in dense.tenants) == sorted(
        kind for kind, _ in workloads.DENSE_NFS)
    assert dense.traffic.n_packets == 60_000
    assert dense.traffic.arrival_period_ns == 150


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_on_nested_sibling_and_recursive_spans():
    clock = FakeClock()
    tracer = spans.SpanTracer(clock=clock)

    def advance(ns):
        clock.now += ns

    leaf = tracer.span("leaf", "leaf", lambda: advance(5))

    def body():
        advance(2)
        leaf()          # sibling 1
        advance(3)
        leaf()          # sibling 2
        advance(1)

    parent = tracer.span("parent", "parent", body)

    def rec_body(n):
        advance(1)
        if n:
            rec(n - 1)
        advance(1)

    rec = tracer.span("rec", "rec", rec_body)

    def root_body():
        advance(4)
        parent()
        rec(2)
        advance(7)

    root = tracer.span("other", "root", root_body)
    root()

    assert tracer.self_ns["leaf"] == 10
    assert tracer.self_ns["parent"] == 6
    assert tracer.self_ns["rec"] == 6        # three levels, 2 ns each
    assert tracer.self_ns["other"] == 11
    assert tracer.total_ns["parent"] == 16
    assert tracer.total_ns["rec"] == 6 + 4 + 2
    assert sum(tracer.self_ns.values()) == clock.now == 33
    assert tracer.calls == {"leaf": 2, "parent": 1, "rec": 3, "other": 1}
    assert not tracer.stack


def test_span_cap_keeps_totals_and_counts_every_call():
    clock = FakeClock()
    tracer = spans.SpanTracer(clock=clock, cap=3)

    def tick():
        clock.now += 1
        return 2

    fine = tracer.span("fine", "fine", tick,
                       counts=(("fine.units", spans._returned),))
    coarse = tracer.span("coarse", "coarse", tick, coarse=True)
    for _ in range(5):
        fine()
        coarse()
    assert tracer.kept == {"fine": 3, "coarse": 5}
    assert tracer.dropped == {"fine": 2}
    assert tracer.self_ns["fine"] == 5
    assert tracer.counts["fine.units"] == 10
    doc = spans.chrome_trace(tracer, {"workload": "t"})
    assert len(doc["traceEvents"]) == 8
    assert doc["otherData"]["spans_dropped_by_layer"] == {"fine": 2}


def test_a_raising_span_still_closes():
    clock = FakeClock()
    tracer = spans.SpanTracer(clock=clock)

    def boom():
        clock.now += 3
        raise ValueError

    wrapped = tracer.span("x", "x", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.self_ns["x"] == 3 and not tracer.stack


# ----------------------------------------------------------------------
# Install / remove
# ----------------------------------------------------------------------


def _current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


@pytest.mark.parametrize("install", ["trace", "timers"])
def test_removing_the_wrappers_restores_every_attribute(install):
    for module in spans.PRELOAD:
        importlib.import_module(module)
    if install == "trace":
        patches = spans.install_trace(spans.SpanTracer())
        assert len({t.path for t in spans.TARGETS}) == len(spans.TARGETS)
    else:
        patches = spans.install_timers(spans.Timers())
    patched = patches.patched()
    assert patched
    assert all(_current(o, a) is not orig for o, a, orig in patched)
    if install == "trace":
        # ``from repro.crypto.rsa import rsa_generate`` copies are wrapped
        # as well as the defining module's binding.
        owners = {(getattr(o, "__name__", ""), a) for o, a, _ in patched}
        assert {("repro.crypto.rsa", "rsa_generate"),
                ("repro.crypto.keys", "rsa_generate")} <= owners
    patches.remove()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)


def test_a_copy_made_while_installed_is_restored(monkeypatch):
    import types

    rsa = importlib.import_module("repro.crypto.rsa")
    original = rsa.rsa_generate
    patches = spans.install_trace(spans.SpanTracer())
    late = types.ModuleType("repro._late_import")
    late.rsa_generate = rsa.rsa_generate          # ``from ... import``
    monkeypatch.setitem(sys.modules, late.__name__, late)
    assert late.rsa_generate is not original
    patches.remove()
    assert late.rsa_generate is original and rsa.rsa_generate is original


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_within_its_limits():
    spec = _benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_ORDER)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert _NAME.match(metric["name"]) and _UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


S = 1_000_000_000  # one second in ns


def _fake_timers():
    """A measured run's result: 3 s of wall, cells of 1 s and 2 s."""
    return {"wall": [0, 3 * S], "wall_s": 3.0, "timers": {
        "deploy": [[0, S // 4], [S, S + S // 4]],
        "runtime": [[S // 4, S // 2]], "runtime_packets": [25],
        "cell": [[0, S], [S, 3 * S]], "events": 7}}


def _fake_layers():
    layers = {"self_ns": {}, "total_ns": {"hw.events": 3_000},
              "calls": {}, "counts": {"hw.events.events": 10,
                                      "core.runtime.polls": 4,
                                      "core.runtime.useful_polls": 1},
              "kernel_callback_ns": 2_000}
    for i, layer in enumerate(sorted(
            {t.layer for t in spans.TARGETS} | {"other", "nf.monitor"})):
        layers["self_ns"][layer] = 1_000 * (i + 1)
    return layers


def test_printed_metric_names_equal_benchmark_json():
    spec = _benchmark()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == [(n, u, b) for n, (u, b) in run.END_TO_END.items()]
    assert list(run.end_to_end(_fake_timers(), 50.0)) == list(run.END_TO_END)
    layer = run.per_layer(_fake_layers(), 1.0, 0.5)
    for metric in spec["per_layer"]:
        assert layer[metric["name"]][1] == metric["unit"], metric["name"]
    assert layer["core.runtime.poll_useful_ratio"][0] == 0.25
    assert layer["hw.events.self_s"][0] == pytest.approx(1e-6)


def test_layer_self_times_sum_to_the_traced_wall():
    layers = _fake_layers()
    wall = sum(layers["self_ns"].values()) / 1e9
    layer = run.per_layer(layers, wall, wall / 2)
    assert layer["trace.layer_sum_frac"][0] == pytest.approx(1.0)
    assert layer["trace.overhead_frac"][0] == pytest.approx(1.0)


def test_compare_verdicts():
    a = {"median": 10.0, "q1": 9.9, "q3": 10.1}
    assert run.verdict(a, {"median": 12.0, "q1": 11.9, "q3": 12.1},
                       "lower", 0.1)[1] == "worse beyond bound"
    assert run.verdict(a, {"median": 9.0, "q1": 8.9, "q3": 9.1},
                       "lower", 0.1)[1] == "better"
    assert run.verdict(a, {"median": 9.5, "q1": 9.4, "q3": 9.6},
                       "higher", 0.1)[1] == "within bound"
    assert run.verdict(a, {"median": 10.0, "q1": 8.0, "q3": 12.0},
                       "lower", 0.1)[1] == "unresolved"


def test_percentile_leaves_ten_cells_above_p85_of_72():
    cells = list(range(72))
    p85 = run.percentile(cells, 0.85)
    assert sum(1 for c in cells if c > p85) == 10


# ----------------------------------------------------------------------
# The child path, end to end, on a tiny spec
# ----------------------------------------------------------------------


def test_end_to_end_arithmetic():
    metrics = run.end_to_end(_fake_timers(), 50.0)
    assert metrics == {"wall_s": 3.0, "setup_s": 0.5,
                       "traffic_pkts_per_s": 100.0, "cell_p50_s": 1.5,
                       "cell_p85_s": 2.0, "peak_rss_mb": 50.0}


def test_host_speed_converts_each_interval_at_its_own_speed():
    ref = run.PROBE_REF_S
    # 0.1 s apart: full speed for the first second, half speed after.
    samples = [(k * S // 10, ref if k < 10 else 2 * ref) for k in range(20)]
    speed = run.HostSpeed(samples)
    assert speed.seconds((0, S // 2)) == pytest.approx(0.5)
    assert speed.seconds((S + S // 2, 2 * S)) == pytest.approx(0.25)
    # Between samples, and past the last one, the nearest sample counts.
    assert speed.speed(S // 20, S // 20 + 1) == pytest.approx(1.0)
    assert speed.speed(5 * S, 6 * S) == pytest.approx(0.5)
    # The running median drops one delayed probe.
    samples[3] = (samples[3][0], 10 * ref)
    assert run.HostSpeed(samples).speed(0, S // 2) == pytest.approx(1.0)
    fake = _fake_timers()
    half = run.end_to_end(fake, 50.0, run.HostSpeed([(0, 2 * ref)]).seconds)
    base = run.end_to_end(fake, 50.0)
    for name in ("wall_s", "setup_s", "cell_p50_s", "cell_p85_s"):
        assert half[name] == pytest.approx(base[name] / 2)
    assert half["traffic_pkts_per_s"] == pytest.approx(
        base["traffic_pkts_per_s"] * 2)
    assert half["peak_rss_mb"] == base["peak_rss_mb"]


def test_tiny_spec_runs_through_the_child_path(tmp_path):
    started = time.monotonic()
    with run.Probe(tmp_path) as probe:
        sample = run.run_child("nf-dense", 7, tmp_path / "m", scale=60,
                               probe=probe)
        traced = run.run_child("nf-dense", 7, tmp_path / "t", scale=60,
                               trace=True, chrome=tmp_path / "trace.json",
                               probe=probe)
    assert probe.proc.returncode is not None
    assert time.monotonic() - started < 60
    assert sample["failures"] == [] and traced["failures"] == []
    assert sample["sha256"] == traced["sha256"]
    assert set(sample["metrics"]) == set(run.END_TO_END)
    assert sample["metrics"]["wall_s"] == pytest.approx(
        sample["wall_s"] * sample["speed"])
    assert 0.2 < sample["speed"] < 5
    assert sample["metrics"]["traffic_pkts_per_s"] > 0
    layer = run.per_layer(traced["layers"], traced["wall_s"],
                          sample["metrics"]["wall_s"], traced["speed"])
    assert layer["trace.layer_sum_frac"][0] == pytest.approx(1.0, abs=0.05)
    assert layer["nf.dpi.calls"][0] == 1_000 // 6 + 1
    with open(tmp_path / "trace.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {e["ph"] for e in doc["traceEvents"]} == {"X"}
