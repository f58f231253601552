"""``python -m repro audit`` — the isolation scorecard.

The paper's evaluation asks one question two ways: *does a co-tenant
change what a victim observes?* Figure 5 answers it with throughput
(solo vs co-tenant IPC), §6 answers it with security arguments.  The
audit runs the same solo-vs-co-tenant differential on every shared
hardware resource in the simulation — bus, cache, DRAM, DMA, cores —
under the **commodity** configuration (FCFS bus, shared LRU cache,
shared DMA engine, time-sliced cores) and under the **S-NIC**
configuration (temporal bus partitioning, hard cache ways, per-tenant
DRAM reservations, per-bank DMA engines, exclusive cores), and emits a
scorecard:

* per-resource interference matrices (who made whom wait, from the
  :mod:`repro.obs.interference` accountant);
* victim slowdown deltas (co-tenant metric / solo metric);
* side-channel capacity estimates (bus watermark, cache prime+probe,
  via :mod:`repro.commodity.sidechannels`);
* the differential noninterference harness verdict
  (:mod:`repro.core.noninterference`).

The **verdict** is the CI gate: commodity must show *nonzero*
cross-tenant attributed wait (the instrumentation works, the
interference is real) and S-NIC must show *exactly zero* (the paper's
isolation claim holds in the model, not approximately but
structurally).  Everything is deterministic — fixed seeds, fixed
workloads, sorted JSON — so two runs produce byte-identical scorecards
and any diff is a real behaviour change.

The audit is ``repro chaos``'s experiment with a well-behaved co-tenant
as the perturbation instead of an injected fault: both run their legs
through :func:`repro.obs.bench.run_differential` (every leg in its own
cell, all under IsoSan), and the bus and DRAM legs run chaos's rigs.
"""

from __future__ import annotations

import argparse
import functools
from typing import (Any, Callable, Dict, Iterator, List, Optional, TextIO,
                    Tuple)

from repro.commodity.sidechannels import (
    bus_watermark_on_fcfs,
    bus_watermark_on_snic,
    cache_covert_channel,
    channel_capacity,
)
from repro.core.noninterference import check_noninterference
from repro.faults.chaos import FAULTY, VICTIM, bus_rig, dram_rig
from repro.hw.cache import HARD, Cache, CacheConfig
from repro.hw.cores import ProgrammableCore
from repro.hw.dma import DMAController, DMAWindow
from repro.hw.memory import HostMemory, PhysicalMemory
from repro.obs.bench import (cell_scope, emit_report, format_json,
                             run_differential)
from repro.obs.interference import (
    RESOURCES,
    BlameMatrix,
    blame_matrix,
    cross_tenant_events,
    cross_tenant_wait_ns,
    format_matrix,
)
from repro.obs.metrics import get_registry

SCHEMA_VERSION = 1

#: The two security domains every rig uses, shared with chaos: its
#: victim, and its faulty tenant as the audit's well-behaved co-tenant.
AGGRESSOR = FAULTY

#: Iterations per workload (full / --quick).
_SCALE = {"full": 200, "quick": 40}
_CHANNEL_BITS = {"full": 64, "quick": 24}
_NONINT_TRIALS = {"full": 6, "quick": 2}
_NONINT_STEPS = {"full": 30, "quick": 12}


# ----------------------------------------------------------------------
# Per-resource rigs: (snic, cotenant, rounds) -> what the victim saw.
#
# Bus and DRAM are chaos's rigs; the DMA, cache and cores rigs are the
# audit's own (their timings differ from chaos's).  Each leaves its
# blame trail in the cell's accountant, and all are pure functions of
# their arguments: no wall clock, no unseeded randomness.
# ----------------------------------------------------------------------

def _cache_rig(snic: bool, cotenant: bool, rounds: int) -> float:
    """Victim steady-state miss rate on a resident working set.

    The victim's working set is two lines per set — exactly its hard
    partition share.  A co-tenant thrashing every way evicts it in
    shared mode (conflict misses, blamed on the evictor) but cannot
    reach the victim's ways under hard partitioning.
    """
    cache = Cache(CacheConfig(size_bytes=4096, line_bytes=64, ways=4),
                  name="audit-l2")
    if snic:
        cache.set_partitions({VICTIM: 2, AGGRESSOR: 2}, mode=HARD)
    line = cache.config.line_bytes
    n_sets = cache.config.n_sets
    stride = n_sets * line
    victim_ws = [s * line + k * stride
                 for s in range(n_sets) for k in range(2)]
    aggressor_ws = [s * line + (8 + k) * stride
                    for s in range(n_sets) for k in range(4)]
    for addr in victim_ws:  # warm: cold misses are not interference
        cache.access(addr, owner=VICTIM)
    stats = cache.stats[VICTIM]
    base_misses = stats.misses
    accesses = 0
    for _ in range(rounds):
        if cotenant:
            for addr in aggressor_ws:
                cache.access(addr, owner=AGGRESSOR)
        for addr in victim_ws:
            cache.access(addr, owner=VICTIM)
            accesses += 1
    return (stats.misses - base_misses) / accesses


def _dma_rig(snic: bool, cotenant: bool, rounds: int) -> List[float]:
    """Victim DMA completion latencies (ns) for 4 kB downstream copies.

    Commodity: ``shared_engine=True`` — every bank's transfers funnel
    through one engine, so the aggressor's 32 kB copy delays the
    victim's.  S-NIC: one engine per bank (§4.2), so bank 0's service
    time is a function of bank 0's stream only.
    """
    controller = DMAController(2, shared_engine=not snic)
    host = HostMemory(1 << 20)
    nic = PhysicalMemory(1 << 20)
    window = 64 * 1024
    for bank_id, owner in ((0, VICTIM), (1, AGGRESSOR)):
        bank = controller.bank_for_core(bank_id)
        bank.configure(
            owner,
            nic_window=DMAWindow(base=bank_id * window, size=window),
            host_window=DMAWindow(base=(4 + bank_id) * window, size=window),
        )
    victim_bank = controller.bank_for_core(0)
    aggressor_bank = controller.bank_for_core(1)
    period = 12_000.0
    latencies: List[float] = []
    for i in range(rounds):
        t = i * period
        if cotenant:
            aggressor_bank.to_nic(host, nic, host_addr=5 * window,
                                  nic_addr=window, n_bytes=32_768, now_ns=t)
        issue = t + 5.0
        done = victim_bank.to_nic(host, nic, host_addr=4 * window,
                                  nic_addr=0, n_bytes=4096, now_ns=issue)
        assert done is not None  # timed call always returns completion
        latencies.append(done - issue)
    return latencies


def _cores_rig(snic: bool, cotenant: bool, rounds: int) -> float:
    """Victim mean cycles per scheduling round.

    Commodity NICs time-slice firmware threads across shared cores, so
    a co-tenant's slice shows up as stall cycles the victim can do
    nothing about; those are blamed through
    :meth:`ProgrammableCore.record_stalls`.  S-NIC allocates cores
    exclusively (§4.1): the victim runs undisturbed and nothing is
    attributed.
    """
    core = ProgrammableCore(0, PhysicalMemory(64 * 1024))
    core.bind(VICTIM)
    run_cycles = 1000.0
    slice_cycles = 800.0
    total = 0.0
    for _ in range(rounds):
        if cotenant and not snic:
            core.record_stalls(slice_cycles, culprit=AGGRESSOR)
            total += slice_cycles
        total += run_cycles
    return total / rounds


_LATENCY = "mean latency (ns)"

#: resource -> (rig, metric).  A latency rig returns the victim's
#: per-probe latencies; the others return its figure of merit.
_RIGS: Dict[str, Tuple[Callable[[bool, bool, int], Any], str]] = {
    "bus": (bus_rig, _LATENCY),
    "cache": (_cache_rig, "miss rate"),
    "dram": (dram_rig, _LATENCY),
    "dma": (_dma_rig, _LATENCY),
    "cores": (_cores_rig, "cycles/round"),
}

_Leg = Tuple[float, BlameMatrix, Optional[Dict[str, float]]]


def _leg(resource: str, snic: bool, cotenant: bool, rounds: int) -> _Leg:
    """One resource's solo or co-tenant run, in its cell: the victim's
    figure of merit, the cell's blame matrix for the resource and, for
    a latency rig, the p50/p95/p99 of the victim's latencies."""
    rig, metric = _RIGS[resource]
    if metric != _LATENCY:
        return rig(snic, cotenant, rounds), blame_matrix(resource=resource), None
    histogram = get_registry().histogram(
        "audit_victim_latency_ns", resource=resource, tenant=VICTIM)
    total = 0.0
    for latency in rig(snic, cotenant, rounds):
        histogram.observe(latency)
        total += latency
    percentiles = {"p50": histogram.p50, "p95": histogram.p95,
                   "p99": histogram.p99, "count": float(histogram.count)}
    return total / rounds, blame_matrix(resource=resource), percentiles


def _config_report(legs: Dict[str, Dict[str, Tuple[_Leg, _Leg]]],
                   label: str) -> Dict[str, object]:
    """One config's scorecard: per resource the solo run, the co-tenant
    run and the co-tenant run's blame."""
    resources: Dict[str, Dict[str, Any]] = {}
    for res in RESOURCES:
        (solo, _, _), (figure, matrix, percentiles) = legs[res][label]
        cells = matrix.get(res, {})
        resources[res] = {
            "metric": _RIGS[res][1],
            "solo": solo,
            "cotenant": figure,
            # A ratio is meaningless off a zero baseline (e.g. a 0% solo
            # miss rate); report null rather than a JSON-hostile Infinity.
            "slowdown": figure / solo if solo > 0 else None,
            "cotenant_latency_percentiles": percentiles,
            "cross_tenant_wait_ns": cross_tenant_wait_ns(matrix),
            "cross_tenant_events": cross_tenant_events(matrix),
            "matrix": {f"{victim}->{culprit}": cell
                       for (victim, culprit), cell in sorted(cells.items())},
        }
    return {
        "resources": resources,
        "cross_tenant_wait_ns": sum(
            float(r["cross_tenant_wait_ns"]) for r in resources.values()),
        "cross_tenant_events": sum(
            float(r["cross_tenant_events"]) for r in resources.values()),
    }


def _measure_side_channels(n_bits: int) -> Dict[str, object]:
    results = {
        "bus_watermark": {
            "commodity": bus_watermark_on_fcfs(n_bits=n_bits),
            "snic": bus_watermark_on_snic(n_bits=n_bits),
        },
        "cache_prime_probe": {
            "commodity": cache_covert_channel("shared", n_bits=n_bits),
            "snic": cache_covert_channel(HARD, n_bits=n_bits),
        },
    }
    out: Dict[str, object] = {}
    for channel, by_config in results.items():
        out[channel] = {
            config: {
                "accuracy": result.accuracy,
                "bits": result.bits,
                "capacity_bits_per_symbol": channel_capacity(result.accuracy),
                "closed": result.channel_closed,
            }
            for config, result in by_config.items()
        }
    return out


def run_audit(quick: bool = False) -> Dict[str, object]:
    """Run the full differential and build the scorecard dict."""
    scale = "quick" if quick else "full"
    rounds = _SCALE[scale]
    legs = run_differential(RESOURCES, functools.partial(_leg, rounds=rounds))
    commodity = _config_report(legs, "commodity")
    snic = _config_report(legs, "snic")
    with cell_scope():
        channels = _measure_side_channels(_CHANNEL_BITS[scale])
        violations = check_noninterference(
            n_trials=_NONINT_TRIALS[scale],
            steps_per_trial=_NONINT_STEPS[scale], seed=0)

    reasons: List[str] = []
    snic_cross = float(snic["cross_tenant_wait_ns"])  # type: ignore[arg-type]
    commodity_cross = float(commodity["cross_tenant_wait_ns"])  # type: ignore[arg-type]
    if snic_cross != 0.0:
        reasons.append(
            f"S-NIC config attributed {snic_cross:.1f} ns of cross-tenant "
            f"wait (must be exactly 0)")
    if commodity_cross <= 0.0:
        reasons.append(
            "commodity config attributed no cross-tenant wait "
            "(instrumentation is not seeing the interference)")
    for res in RESOURCES:
        report = commodity["resources"][res]  # type: ignore[index]
        if float(report["cross_tenant_wait_ns"]) <= 0.0:
            reasons.append(
                f"commodity {res} workload attributed no cross-tenant wait")
    for channel, by_config in channels.items():  # type: ignore[assignment]
        if not by_config["snic"]["closed"]:  # type: ignore[index]
            reasons.append(f"side channel {channel} is not closed under S-NIC")
    if violations:
        reasons.append(
            f"differential harness found {len(violations)} noninterference "
            f"violation(s)")

    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "rounds_per_workload": rounds,
        "tenants": {"victim": VICTIM, "aggressor": AGGRESSOR},
        "configs": {"commodity": commodity, "snic": snic},
        "side_channels": channels,
        "noninterference": {
            "trials": _NONINT_TRIALS[scale],
            "steps_per_trial": _NONINT_STEPS[scale],
            "violations": len(violations),
        },
        "verdict": {"pass": not reasons, "reasons": reasons},
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _shift(report: Dict[str, Any], arrow: str) -> str:
    """``solo -> co-tenant (xslowdown)`` of one resource report."""
    slowdown = report["slowdown"]
    return (f"{_fmt(report['solo'])} {arrow} {_fmt(report['cotenant'])} "
            f"({'x n/a' if slowdown is None else f'x{slowdown:.2f}'})")


def _by_resource(scorecard: Dict[str, Any]) -> Iterator[Tuple[str, Any, Any]]:
    """``(resource, commodity report, S-NIC report)`` in resource order."""
    configs = scorecard["configs"]
    for res in RESOURCES:
        yield (res, configs["commodity"]["resources"][res],
               configs["snic"]["resources"][res])


def _config_matrix(scorecard: Dict[str, object], config: str) -> BlameMatrix:
    resources = scorecard["configs"][config]["resources"]  # type: ignore[index]
    matrix: BlameMatrix = {}
    for res, report in resources.items():
        cells = {}
        for key, cell in report["matrix"].items():
            victim, culprit = key.split("->", 1)
            cells[(victim, culprit)] = cell
        if cells:
            matrix[res] = cells
    return matrix


def format_scorecard_text(scorecard: Dict[str, object]) -> str:
    lines: List[str] = ["=== repro audit: isolation scorecard ==="]
    mode = "quick" if scorecard["quick"] else "full"
    lines.append(f"mode: {mode}  "
                 f"({scorecard['rounds_per_workload']} rounds/workload)")
    lines.append("")
    header = (f"{'resource':<9} {'metric':<17} {'commodity':>22} "
              f"{'s-nic':>22} {'x-tenant wait (ns)':>24}")
    lines.append(header)
    lines.append("-" * len(header))
    for res, com, sni in _by_resource(scorecard):
        com_col, sni_col = _shift(com, "->"), _shift(sni, "->")
        cross_col = (f"{_fmt(com['cross_tenant_wait_ns'])} vs "
                     f"{_fmt(sni['cross_tenant_wait_ns'])}")
        lines.append(f"{res:<9} {com['metric']:<17} {com_col:>22} "
                     f"{sni_col:>22} {cross_col:>24}")
    lines.append("")
    for config in ("commodity", "snic"):
        lines.append(format_matrix(
            _config_matrix(scorecard, config),
            title=f"{config} blame matrix (co-tenant runs)"))
        lines.append("")
    lines.append("--- victim co-tenant latency percentiles (ns) ---")
    for res, com, sni in _by_resource(scorecard):
        com_pct = com.get("cotenant_latency_percentiles")
        sni_pct = sni.get("cotenant_latency_percentiles")
        if not com_pct or not sni_pct:
            continue
        lines.append(
            f"{res:<9} commodity p50/p95/p99 "
            f"{com_pct['p50']:.0f}/{com_pct['p95']:.0f}/{com_pct['p99']:.0f}"
            f"   s-nic {sni_pct['p50']:.0f}/{sni_pct['p95']:.0f}/"
            f"{sni_pct['p99']:.0f}")
    lines.append("")
    lines.append("--- side channels (accuracy / capacity bits/symbol) ---")
    for channel, by_config in scorecard["side_channels"].items():  # type: ignore[union-attr]
        com, sni = by_config["commodity"], by_config["snic"]
        lines.append(
            f"{channel:<18} commodity {com['accuracy']:.3f} / "
            f"{com['capacity_bits_per_symbol']:.3f}   "
            f"s-nic {sni['accuracy']:.3f} / "
            f"{sni['capacity_bits_per_symbol']:.3f} "
            f"({'closed' if sni['closed'] else 'OPEN'})")
    nonint = scorecard["noninterference"]
    lines.append(
        f"noninterference: {nonint['violations']} violation(s) over "  # type: ignore[index]
        f"{nonint['trials']} trials x {nonint['steps_per_trial']} steps")  # type: ignore[index]
    verdict = scorecard["verdict"]
    lines.append("")
    if verdict["pass"]:  # type: ignore[index]
        lines.append("VERDICT: PASS — commodity interferes, S-NIC attributes "
                     "exactly zero cross-tenant wait")
    else:
        lines.append("VERDICT: FAIL")
        for reason in verdict["reasons"]:  # type: ignore[index]
            lines.append(f"  - {reason}")
    return "\n".join(lines) + "\n"


def format_scorecard_markdown(scorecard: Dict[str, object]) -> str:
    lines: List[str] = ["# repro audit: isolation scorecard", ""]
    mode = "quick" if scorecard["quick"] else "full"
    lines.append(f"Mode: `{mode}` "
                 f"({scorecard['rounds_per_workload']} rounds per workload)")
    lines.append("")
    lines.append("| resource | metric | commodity solo→co (slowdown) | "
                 "S-NIC solo→co (slowdown) | cross-tenant wait ns "
                 "(commodity / S-NIC) |")
    lines.append("|---|---|---|---|---|")
    for res, com, sni in _by_resource(scorecard):
        lines.append(
            f"| {res} | {com['metric']} "
            f"| {_shift(com, '→')} | {_shift(sni, '→')} "
            f"| {_fmt(com['cross_tenant_wait_ns'])} / "
            f"{_fmt(sni['cross_tenant_wait_ns'])} |")
    lines.append("")
    lines.append("## Side channels")
    lines.append("")
    lines.append("| channel | commodity accuracy | commodity capacity | "
                 "S-NIC accuracy | S-NIC capacity | closed under S-NIC |")
    lines.append("|---|---|---|---|---|---|")
    for channel, by_config in scorecard["side_channels"].items():  # type: ignore[union-attr]
        com, sni = by_config["commodity"], by_config["snic"]
        lines.append(
            f"| {channel} | {com['accuracy']:.3f} "
            f"| {com['capacity_bits_per_symbol']:.3f} "
            f"| {sni['accuracy']:.3f} "
            f"| {sni['capacity_bits_per_symbol']:.3f} "
            f"| {'yes' if sni['closed'] else '**no**'} |")
    nonint = scorecard["noninterference"]
    verdict = scorecard["verdict"]
    lines.append("")
    lines.append(
        f"Noninterference harness: **{nonint['violations']} violations** "  # type: ignore[index]
        f"({nonint['trials']} trials × {nonint['steps_per_trial']} steps).")  # type: ignore[index]
    lines.append("")
    if verdict["pass"]:  # type: ignore[index]
        lines.append("**Verdict: PASS** — the commodity configuration "
                     "attributes nonzero cross-tenant wait on every shared "
                     "resource and the S-NIC configuration attributes "
                     "exactly zero.")
    else:
        lines.append("**Verdict: FAIL**")
        for reason in verdict["reasons"]:  # type: ignore[index]
            lines.append(f"- {reason}")
    return "\n".join(lines) + "\n"


_FORMATTERS = {
    "text": format_scorecard_text,
    "json": format_json,
    "markdown": format_scorecard_markdown,
}


def main(argv: Optional[List[str]] = None,
         stream: Optional[TextIO] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro audit",
        description="Solo-vs-co-tenant isolation audit across every shared "
                    "hardware resource; exits 1 if the verdict fails.")
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke)")
    parser.add_argument("--format", choices=sorted(_FORMATTERS),
                        default="text", help="output format")
    parser.add_argument("-o", "--out", metavar="PATH",
                        help="also write the scorecard to this file")
    args = parser.parse_args(argv)
    scorecard = run_audit(quick=args.quick)
    return emit_report(_FORMATTERS[args.format](scorecard),
                       ok=scorecard["verdict"]["pass"],  # type: ignore[index]
                       out=args.out, stream=stream, label="audit report")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
