"""Simulator benchmark: end-to-end host metrics and a per-layer trace.

One process drives every measurement.  It starts each workload run as a
fresh child interpreter (``child.py``), one child at a time, reads the
child's resource usage from ``os.wait4`` and checks the report the
program printed.  The driver is a closed-loop client: the next child
starts only after the previous one exits.  Simulated packet arrivals
inside each workload are open-loop, on a fixed simulated-time schedule.

A set (the default)::

    python benchmarks/perf/run.py [--seed 7] [--rounds 5] [--trace] [--out DIR]

runs every workload once per round, rotating the order from round to
round, and prints each end-to-end metric as a median with quartiles and
the sample count.  ``--trace`` adds one traced run per workload and
prints the per-layer table.  The set is written to ``DIR`` as JSON.

One workload for a fixed time, with a one-line JSON result::

    python benchmarks/perf/run.py --workload nf-dense --seed 7 --seconds 25 --trace 0

Compare two set files::

    python benchmarks/perf/run.py --compare A.json B.json

Any failed output check makes the command exit 1.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_OUT = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 170.0
#: A fixed-time run ends within this many seconds, whatever happens.
TIMED_DEADLINE_S = 170.0
SCHEMA = "perfbench.set/1"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

WORKLOAD_ORDER = tuple(workloads.WORKLOADS)


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: at least ``(1 - q) * n`` values lie at
    or above it (for q=0.85 and 72 cells, 10 lie strictly above)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# ----------------------------------------------------------------------
# End-to-end metrics of one measured run
# ----------------------------------------------------------------------

#: name -> (unit, better); the order is the print order.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "traffic_pkts_per_s": ("pkt/s", "higher"),
    "cell_p50_s": ("s", "lower"),
    "cell_p85_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def host_seconds(interval: Sequence[int]) -> float:
    """Seconds of a ``(start_ns, end_ns)`` interval, unconverted."""
    return (interval[1] - interval[0]) / 1e9


def end_to_end(result: dict, rss_mb: float,
               seconds: Callable[[Sequence[int]], float] = host_seconds
               ) -> Dict[str, float]:
    """The end-to-end metrics of one child run's timers, each interval
    measured with ``seconds`` (see :meth:`HostSpeed.seconds`)."""
    timers = result["timers"]
    cells = [seconds(cell) for cell in timers["cell"]]
    return {
        "wall_s": seconds(result["wall"]),
        "setup_s": sum(seconds(call) for call in timers["deploy"]),
        "traffic_pkts_per_s": sum(timers["runtime_packets"])
        / sum(seconds(call) for call in timers["runtime"]),
        "cell_p50_s": statistics.median(cells),
        "cell_p85_s": percentile(cells, 0.85),
        "peak_rss_mb": rss_mb,
    }


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Probe kernel CPU time taken as the reference speed: about what it
#: takes on a quiet run of the 2-vCPU, 2.1 GHz x86-64 host this
#: benchmark was built on.
PROBE_REF_S = 0.0006
#: Probe samples in the running median behind each speed estimate
#: (a quarter second of host time at the probe's 50 ms period).
SPEED_WINDOW = 5


class HostSpeed:
    """Host speed over time, from the probe's ``(start_ns, seconds)``
    samples.

    The speed at sample ``k`` is ``PROBE_REF_S`` over the median probe
    time of the ``SPEED_WINDOW`` samples around it; the median drops a
    stray sample.
    """

    def __init__(self, samples: Sequence[Tuple[int, float]]) -> None:
        if not samples:
            raise RuntimeError("the host-speed probe wrote no samples")
        samples = sorted(samples)
        half = SPEED_WINDOW // 2
        self.times = [t for t, _ in samples]
        self.speeds = [
            PROBE_REF_S / statistics.median(
                dt for _, dt in samples[max(0, k - half):k + half + 1])
            for k in range(len(samples))]

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Mean speed of the samples in ``[start_ns, end_ns]``; the
        nearest sample's when none fell inside."""
        lo = bisect.bisect_left(self.times, start_ns)
        hi = bisect.bisect_right(self.times, end_ns)
        if hi > lo:
            return statistics.fmean(self.speeds[lo:hi])
        middle = (start_ns + end_ns) / 2
        k = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                key=lambda i: abs(self.times[i] - middle))
        return self.speeds[k]

    def seconds(self, interval: Sequence[int]) -> float:
        """Reference seconds of a host ``(start_ns, end_ns)`` interval:
        its host seconds times the host's speed during it."""
        return host_seconds(interval) * self.speed(*interval)


class Probe:
    """``probe.py`` running on one CPU, which each child then shares."""

    def __init__(self, out: Path) -> None:
        self.cpu = max(os.sched_getaffinity(0))
        self.path = out / "probe.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "--cpu", str(self.cpu),
             "--out", str(self.path)], stdout=subprocess.DEVNULL)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc: object) -> None:
        self.proc.terminate()
        self.proc.wait()

    def _samples(self) -> List[Tuple[int, float]]:
        samples = []
        if self.path.exists():
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    parts = line.split()
                    # The probe may be mid-way through its last line.
                    if line.endswith("\n") and len(parts) == 2:
                        samples.append((int(parts[0]), float(parts[1])))
        return samples

    def host_speed(self) -> HostSpeed:
        """The host's speed from every sample written so far."""
        deadline = time.monotonic() + 2.0
        samples = self._samples()
        while not samples and time.monotonic() < deadline:
            time.sleep(0.05)
            samples = self._samples()
        return HostSpeed(samples)


# ----------------------------------------------------------------------
# Per-layer metrics of one traced run
# ----------------------------------------------------------------------

NF_KINDS = ("dpi", "firewall", "lpm", "nat", "lb", "monitor")

#: Self-time layers reported as ``<metric>`` -> span layer.
_SELF_METRICS = (
    ("core.runtime.self_s", "core.runtime"),
    ("core.snic.ingress_s", "core.snic.ingress"),
    ("core.vpp.egress_s", "core.vpp.egress"),
    ("hw.packet_io.self_s", "hw.packet_io"),
    ("net.packet.parse_s", "net.packet"),
    *((f"nf.{kind}.self_s", f"nf.{kind}") for kind in NF_KINDS),
    ("hw.bus.self_s", "hw.bus"),
    ("hw.dma.self_s", "hw.dma"),
    ("hw.dram.self_s", "hw.dram"),
    ("obs.interference.self_s", "obs.interference"),
    ("obs.metrics.self_s", "obs.metrics"),
    ("obs.windows.self_s", "obs.windows"),
    ("obs.slo.self_s", "obs.slo"),
    ("obs.auditlog.self_s", "obs.auditlog"),
    ("crypto.rsa.self_s", "crypto.rsa"),
    ("crypto.sha256.self_s", "crypto.sha256"),
    ("core.snic.init_s", "core.snic.init"),
    ("core.nic_os.create_s", "core.nic_os.create"),
    ("core.nic_os.destroy_s", "core.nic_os.destroy"),
    ("hw.memory.self_s", "hw.memory"),
    ("faults.recovery_s", "faults.recovery"),
    ("scenario.cell.self_s", "scenario.cell"),
    ("scenario.deploy.self_s", "scenario.deploy"),
    ("scenario.contention.self_s", "scenario.contention"),
)

_COUNT_METRICS = (
    "hw.events.events", "core.runtime.polls", "hw.packet_io.ring_ops",
    "hw.bus.transfers", "obs.interference.blames", "obs.metrics.lookups",
    "obs.windows.rotations", "obs.auditlog.records",
    "hw.memory.pages_scrubbed", "faults.injected",
)


def per_layer(layers: dict, traced_wall_s: float, untraced_wall_s: float,
              speed: float = 1.0) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of a traced run as ``name -> (value,
    unit)``, host seconds multiplied by ``speed``.  ``traced_wall_s`` is
    host seconds; ``untraced_wall_s`` is already multiplied.

    Layer self times come from the span stack, except the kernel's:
    ``hw.events.self_s`` is time in ``Simulator.run`` outside event
    callbacks (the ``set_profiler`` hook), and ``hw.events.dispatch_s``
    is callback time outside every span (the callback's own frame plus
    span entry and exit).  ``other.self_s`` is CLI time outside every
    span.
    """
    traced_wall_s *= speed
    self_s = {k: v * speed / 1e9 for k, v in layers["self_ns"].items()}
    counts = layers["counts"]
    kernel_s = (layers["total_ns"].get("hw.events", 0)
                - layers["kernel_callback_ns"]) * speed / 1e9
    dispatch_s = self_s.get("hw.events", 0.0) - kernel_s
    other = self_s.get("other", 0.0)
    events = counts.get("hw.events.events", 0)
    polls = counts.get("core.runtime.polls", 0)
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in _COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")
    for kind in NF_KINDS:
        metrics[f"nf.{kind}.calls"] = (
            layers["calls"].get(f"nf.{kind}", 0), "count")
    metrics["hw.events.self_s"] = (kernel_s, "s")
    metrics["hw.events.dispatch_s"] = (dispatch_s, "s")
    metrics["hw.events.self_ns_per_event"] = (
        kernel_s * 1e9 / events if events else 0.0, "ns")
    metrics["core.runtime.poll_useful_ratio"] = (
        counts.get("core.runtime.useful_polls", 0) / polls if polls
        else 0.0, "ratio")
    for name, layer in _SELF_METRICS:
        metrics[name] = (self_s.get(layer, 0.0), "s")
    metrics["nf.self_s"] = (
        sum(self_s.get(f"nf.{kind}", 0.0) for kind in NF_KINDS), "s")
    metrics["other.self_s"] = (other, "s")
    claimed = sum(v for k, v in self_s.items() if k != "other")
    metrics["trace.layer_sum_frac"] = (
        (claimed + other) / traced_wall_s, "ratio")
    metrics["trace.other_frac"] = (other / traced_wall_s, "ratio")
    metrics["trace.wall_s"] = (traced_wall_s, "s")
    metrics["trace.overhead_frac"] = (
        traced_wall_s / untraced_wall_s - 1.0, "ratio")
    return dict(sorted(metrics.items()))


# ----------------------------------------------------------------------
# Running one child
# ----------------------------------------------------------------------


def _wait(proc: subprocess.Popen, timeout_s: float):
    """Reap ``proc`` with ``os.wait4``; kill it past the timeout."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, rusage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, rusage
        time.sleep(0.02)


def run_child(workload: str, seed: int, workdir: Path, trace: bool = False,
              chrome: Optional[Path] = None, scale: int = 1,
              timeout_s: float = CHILD_TIMEOUT_S,
              probe: Optional[Probe] = None) -> dict:
    """One workload run in a fresh interpreter; returns its sample.

    The sample holds the child's measurements, its peak RSS, the
    report's sha256, and the list of failed output checks (empty when
    the run is correct).  With a ``probe`` the child shares the probe's
    CPU and each timed interval is converted to reference seconds at
    the host's speed during it; ``speed`` is the mean over the run.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir),
           "--result", str(result_path), "--scale", str(scale)]
    if trace:
        cmd.append("--trace")
    if chrome is not None:
        cmd += ["--chrome", str(chrome)]
    if probe is not None:
        cmd += ["--cpu", str(probe.cpu)]
    # IsoSan-on runs are not measured; a fixed hash seed keeps set
    # iteration order, and so host time, the same from run to run.
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ISOSAN"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL)
    code, rusage = _wait(proc, timeout_s)
    sample = {"workload": workload, "seed": seed, "traced": trace,
              "peak_rss_mb": rusage.ru_maxrss / 1024.0,
              "user_s": rusage.ru_utime, "sys_s": rusage.ru_stime,
              "speed": 1.0, "failures": [], "cells": 1, "failed_cells": 1}
    if code != 0 or not result_path.exists():
        sample["failures"].append(
            "child timed out" if code is None else f"child exit {code}")
        return sample
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    with open(result["report"], "rb") as fh:
        report_bytes = fh.read()
    seconds = host_seconds
    if probe is not None:
        seconds = probe.host_speed().seconds
        sample["speed"] = seconds(result["wall"]) / result["wall_s"]
    sample["sha256"] = hashlib.sha256(report_bytes).hexdigest()
    sample["wall_s"] = result["wall_s"]
    failures, cells, failed = workloads.WORKLOADS[workload].check(
        json.loads(report_bytes))
    if result["exit_code"] != 0:
        failures.append(f"repro exit {result['exit_code']}")
        failed = max(failed, 1)
    sample.update(failures=failures, cells=cells, failed_cells=failed)
    if trace:
        sample["layers"] = result["layers"]
    else:
        sample["events"] = result["timers"]["events"]
        sample["metrics"] = end_to_end(result, sample["peak_rss_mb"],
                                       seconds)
    return sample


def same_report(samples: List[dict]) -> bool:
    """Every sample produced the same report bytes."""
    return len({s.get("sha256") for s in samples}) == 1


# ----------------------------------------------------------------------
# Fixed-time mode (one workload, one JSON line)
# ----------------------------------------------------------------------


def run_timed(workload: str, seed: int, seconds: float, trace: bool,
              out: Path) -> Tuple[dict, bool]:
    """Run ``workload`` back to back for about ``seconds`` and report
    the median of each end-to-end metric.  With ``trace``, run it once
    untraced (the overhead baseline) and once traced, and report the
    per-layer metrics.  Returns the result line and correctness.

    Another run starts only if, at the median run time so far, it
    would end inside ``seconds``; the first always runs.  No child
    outlives ``TIMED_DEADLINE_S`` from the start.
    """
    workdir = out / "work" / workload
    workdir.mkdir(parents=True, exist_ok=True)
    samples: List[dict] = []
    started = time.monotonic()
    durations: List[float] = []

    def remaining() -> float:
        return TIMED_DEADLINE_S - (time.monotonic() - started)

    with Probe(workdir) as probe:
        while True:
            t0 = time.monotonic()
            sample = run_child(workload, seed, workdir,
                               timeout_s=remaining(), probe=probe)
            durations.append(time.monotonic() - t0)
            samples.append(sample)
            elapsed = time.monotonic() - started
            if trace or sample["failures"] \
                    or elapsed + statistics.median(durations) > seconds:
                break
        ok = all(not s["failures"] for s in samples) \
            and same_report(samples)
        traced = None
        if ok and trace:
            traced = run_child(workload, seed, workdir, trace=True,
                               timeout_s=remaining(), probe=probe)
            ok = not traced["failures"] \
                and same_report(samples + [traced])
    spec = _benchmark_json()
    metrics: Dict[str, dict] = {}
    if ok and not trace:
        for entry in spec["end_to_end"]:
            name = entry["name"]
            value = statistics.median(s["metrics"][name] for s in samples)
            metrics[name] = {"value": value, "unit": entry["unit"]}
    if ok and trace:
        wall = statistics.median(s["metrics"]["wall_s"] for s in samples)
        layer = per_layer(traced["layers"], traced["wall_s"], wall,
                          traced["speed"])
        for entry in spec["per_layer"]:
            value, _unit = layer[entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    runs = samples + ([traced] if traced else [])
    for sample in runs:
        for failure in sample["failures"]:
            print(f"{workload}: {failure}", file=sys.stderr)
    line = {
        "correct": ok,
        "attempted": sum(s["cells"] for s in runs),
        "failed": sum(s["failed_cells"] for s in runs),
        "metrics": metrics,
    }
    return line, ok


# ----------------------------------------------------------------------
# Sets
# ----------------------------------------------------------------------


def round_order(round_index: int) -> List[str]:
    """Workload order of one round: rotated by one per round."""
    k = round_index % len(WORKLOAD_ORDER)
    return list(WORKLOAD_ORDER[k:] + WORKLOAD_ORDER[:k])


def run_set(seed: int, rounds: int, trace: bool, out: Path) -> dict:
    """``rounds`` rounds over every workload, then the traced runs."""
    with Probe(out) as probe:
        return _run_set(seed, rounds, trace, out, probe)


def _run_set(seed: int, rounds: int, trace: bool, out: Path,
             probe: Probe) -> dict:
    samples: Dict[str, List[dict]] = {w: [] for w in WORKLOAD_ORDER}
    order = []
    for r in range(rounds):
        for workload in round_order(r):
            order.append(workload)
            sample = run_child(workload, seed, out / "work" / workload,
                               probe=probe)
            samples[workload].append(sample)
            print(f"  round {r + 1}/{rounds} {workload:<13} "
                  f"host {sample.get('wall_s', float('nan')):8.3f} s  "
                  f"speed {sample['speed']:.3f}  "
                  f"{'ok' if not sample['failures'] else 'FAILED'}",
                  file=sys.stderr, flush=True)
    result = {"schema": SCHEMA, "seed": seed, "rounds": rounds,
              "probe_ref_s": PROBE_REF_S, "order": order, "workloads": {}}
    for workload, runs in samples.items():
        entry = {
            "why": workloads.WORKLOADS[workload].why,
            "sha256": sorted({s.get("sha256", "") for s in runs}),
            "report_identical": same_report(runs),
            "attempted": sum(s["cells"] for s in runs),
            "failed": sum(s["failed_cells"] for s in runs),
            "failures": [f for s in runs for f in s["failures"]],
            "events": sorted({s.get("events", -1) for s in runs}),
            "runs": [{k: s[k] for k in ("metrics", "wall_s", "speed",
                                        "user_s", "sys_s")
                      if k in s} for s in runs],
        }
        ok_runs = [s for s in runs if "metrics" in s]
        entry["summary"] = {
            name: dict(summarize([s["metrics"][name] for s in ok_runs]),
                       unit=unit, better=better)
            for name, (unit, better) in END_TO_END.items()} \
            if ok_runs else {}
        entry["failed_frac"] = entry["failed"] / max(1, entry["attempted"])
        result["workloads"][workload] = entry
    if trace:
        result["trace"] = {}
        for workload in WORKLOAD_ORDER:
            chrome = out / f"trace_{workload}_s{seed}.json"
            traced = run_child(workload, seed, out / "work" / workload,
                               trace=True, chrome=chrome, probe=probe)
            entry = result["workloads"][workload]
            if traced["failures"] or not entry["summary"]:
                entry["failures"] += traced["failures"]
                continue
            if traced["sha256"] not in entry["sha256"]:
                entry["failures"].append("traced report differs")
            wall = entry["summary"]["wall_s"]["median"]
            result["trace"][workload] = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in per_layer(
                    traced["layers"], traced["wall_s"], wall,
                    traced["speed"]).items()}
            result["trace"][workload]["chrome_trace"] = chrome.name
            print(f"  traced {workload:<13} host "
                  f"{traced['wall_s']:8.3f} s  speed {traced['speed']:.3f}",
                  file=sys.stderr, flush=True)
    return result


def set_ok(result: dict) -> bool:
    return all(not e["failures"] and e["report_identical"] and e["summary"]
               for e in result["workloads"].values())


def format_set(result: dict) -> str:
    lines = [f"perfbench set: seed {result['seed']}, "
             f"{result['rounds']} rounds, order rotates per round", ""]
    for workload, entry in result["workloads"].items():
        lines.append(f"[{workload}] {entry['why']}")
        for name, s in entry["summary"].items():
            lines.append(
                f"  {name:<20} {s['median']:>14.6g} {s['unit']:<6} "
                f"[{s['q1']:.6g}, {s['q3']:.6g}]  n={s['n']}")
        lines.append(
            f"  failed {entry['failed']}/{entry['attempted']} cells "
            f"(failed_frac {entry['failed_frac']:.3g}); report sha256 "
            f"{', '.join(h[:16] for h in entry['sha256'])}"
            f"{'' if entry['report_identical'] else ' DIFFERS'}; "
            f"kernel events {entry['events']}")
        for failure in entry["failures"]:
            lines.append(f"  FAILED: {failure}")
        lines.append("")
    for workload, table in result.get("trace", {}).items():
        wall = table["trace.wall_s"]["value"]
        lines.append(f"[{workload}] traced run, per layer "
                     f"(share = self time / traced wall)")
        for name, m in table.items():
            if not isinstance(m, dict):
                continue
            share = f"{m['value'] / wall:7.1%}" if m["unit"] == "s" \
                and name != "trace.wall_s" else ""
            lines.append(f"  {name:<34} {m['value']:>14.6g} "
                         f"{m['unit']:<6} {share}")
        lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------


def verdict(a: dict, b: dict, better: str, bound: float) -> Tuple[float, str]:
    """Signed change of B against A (positive = worse) and its verdict."""
    worse = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse = -worse
    spread = max((a["q3"] - a["q1"]) / a["median"],
                 (b["q3"] - b["q1"]) / b["median"])
    if spread > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "worse beyond bound"
    if -worse > (a["q3"] - a["q1"]) / a["median"]:
        return worse, "better"
    return worse, "within bound"


def compare(a: dict, b: dict) -> Tuple[str, bool]:
    """Per workload and end-to-end metric: both medians with quartiles,
    the change and a verdict; then the per-layer metrics whose value
    moved most, when both files carry a traced run."""
    bounds = {m["name"]: m["bound"] for m in _benchmark_json()["end_to_end"]}
    lines = [f"A: seed {a['seed']}, {a['rounds']} rounds   "
             f"B: seed {b['seed']}, {b['rounds']} rounds", ""]
    regressed = False
    for workload in WORKLOAD_ORDER:
        sa = a["workloads"].get(workload, {}).get("summary")
        sb = b["workloads"].get(workload, {}).get("summary")
        if not sa or not sb:
            lines.append(f"[{workload}] missing from one side")
            continue
        lines.append(f"[{workload}]")
        for name, bound in bounds.items():
            ma, mb = sa[name], sb[name]
            change, word = verdict(ma, mb, ma["better"], bound)
            regressed |= word == "worse beyond bound"
            lines.append(
                f"  {name:<20} A {ma['median']:.6g} [{ma['q1']:.6g}, "
                f"{ma['q3']:.6g}]  B {mb['median']:.6g} [{mb['q1']:.6g}, "
                f"{mb['q3']:.6g}] {ma['unit']}  "
                f"{'worse' if change > 0 else 'better'} "
                f"{abs(change) * 100:.1f}% (bound {bound * 100:.0f}%): "
                f"{word}")
        ta = a.get("trace", {}).get(workload)
        tb = b.get("trace", {}).get(workload)
        if ta and tb:
            moved = sorted(
                (name for name in ta
                 if isinstance(ta[name], dict) and name in tb
                 and ta[name]["unit"] == "s" and name != "trace.wall_s"),
                key=lambda n: -abs(tb[n]["value"] - ta[n]["value"]))[:5]
            lines.append("  per-layer self time that moved most:")
            for name in moved:
                va, vb = ta[name]["value"], tb[name]["value"]
                lines.append(f"    {name:<30} A {va:.4f} s  B {vb:.4f} s  "
                             f"delta {vb - va:+.4f} s")
        lines.append("")
    return "\n".join(lines), regressed


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator benchmark: end-to-end host metrics per "
                    "workload and a per-layer traced run.")
    parser.add_argument("--workload", choices=WORKLOAD_ORDER,
                        help="run one workload for --seconds and print "
                             "one JSON line")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time with --workload (default 25)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="workload seed (default 7)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="rounds in a set (default 5)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced run and report per-layer "
                             "metrics")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where sets, traces and work files go "
                             "(default .perfbench/ at the repo root)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A", "B"),
                        help="compare two set files and exit 1 on a "
                             "regression beyond a bound")
    args = parser.parse_args(argv)

    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                loaded.append(json.load(fh))
        text, regressed = compare(*loaded)
        print(text)
        return 1 if regressed else 0

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload:
        line, ok = run_timed(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.out)
        print(json.dumps(line))
        return 0 if ok else 1

    result = run_set(args.seed, args.rounds, bool(args.trace), args.out)
    path = args.out / f"perf_set_s{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(format_set(result))
    print(f"wrote {path}")
    return 0 if set_ok(result) else 1


if __name__ == "__main__":
    sys.exit(main())
