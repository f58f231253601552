"""Per-tenant SLO model: objectives, evaluation, burn-rate alerting.

ROADMAP item 3's deliverable is a *judgement* layer: the repo can
already measure per-tenant latency (PR 1 histograms), attribute
interference to culprits (PR 4), and sweep arbiters at scale (PR 6),
but nothing says **pass or fail**.  This module supplies that:

* :class:`SLOSpec` — one frozen, validated objective.  Four kinds,
  each mapping to a claim the paper or its successors make:

  ========================  ==============================================
  kind                      meaning
  ========================  ==============================================
  ``p99_latency_ns``        at least ``target`` of requests complete
                            within ``threshold`` ns (OSMOSIS's tail-
                            latency QoS claim)
  ``throughput_floor``      completed/offered ≥ ``threshold`` (goodput
                            floor under co-tenancy)
  ``interference_budget_ns``  cross-tenant attributed wait over the run
                            ≤ ``threshold`` ns (S-NIC §4.5: temporal
                            partitioning owes exactly **0**)
  ``teardown_deadline_ns``  scrubbed teardown (§4.6) finishes within
                            ``threshold`` ns
  ========================  ==============================================

* :class:`TenantSLO` — a tenant's bundle of objectives, attachable to
  ``TenantSpec.slo`` and read and written by the same dict codec as
  every other spec (:func:`repro.scenario.spec.from_dict`).
* :func:`evaluate_tenant` — end-of-run scoring of cumulative state
  into :class:`ObjectiveResult` rows (the scorecard's cells).
* :class:`BurnRateAlerter` — SRE-style multi-window burn-rate alerting
  over :class:`~repro.obs.windows.WindowSnapshot` deltas: a *page*
  fires on a short/fast window pair burning ≥ 8× budget, a *ticket* on
  a longer pair burning ≥ 2×.  Alerts are edge-triggered (one alert
  per excursion, re-armed when the burn subsides), land as
  tenant-tagged tracer instants, and are witnessed as hash-chained
  audit records in the cell's :class:`~repro.obs.auditlog.AuditLog`
  — an SLO page is a security-relevant event in a paper whose §4.5
  claim *is* an interference budget of zero.

Burn rates are dimensionless budget-consumption speeds: 1.0 means
"spending exactly the error budget", sustained.  For latency,
``burn = bad_fraction / (1 - target)``; for interference,
``burn = (window_wait / window_duration) / (threshold / horizon)``.
A zero error budget (``target == 1.0`` or ``threshold == 0``) makes
any violation burn at :data:`BURN_CAP` — capped, not ``inf``, so burn
values stay JSON-exact and comparable.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.cell import CELL
from repro.obs.metrics import Histogram
from repro.obs.tracer import get_tracer
from repro.obs.windows import WindowSnapshot

#: Objective kinds :class:`SLOSpec` validates against.
OBJECTIVE_KINDS = ("p99_latency_ns", "throughput_floor",
                   "interference_budget_ns", "teardown_deadline_ns")

#: Objective kinds the windowed alerter knows how to burn-rate.
ALERTABLE_KINDS = ("p99_latency_ns", "interference_budget_ns")

#: Burn-rate ceiling standing in for "infinite" when the error budget
#: is zero; finite so JSON round-trips exactly and averages stay sane.
BURN_CAP = 1e6

#: Histogram family the scorecard observes per-tenant latencies into.
LATENCY_METRIC = "slo_latency_ns"


class SLOError(ValueError):
    """An SLO specification failed validation."""


@dataclass(frozen=True)
class SLOSpec:
    """One objective: a kind, a threshold, and (for latency) a target.

    ``threshold`` carries the kind's unit (ns for latency/interference/
    teardown, a fraction for the throughput floor); ``target`` is the
    good-event fraction for ``p99_latency_ns`` and ignored elsewhere.
    """

    kind: str
    threshold: float
    target: float = 0.99

    def __post_init__(self) -> None:
        if self.kind not in OBJECTIVE_KINDS:
            raise SLOError(f"unknown SLO kind {self.kind!r}; "
                           f"expected one of {OBJECTIVE_KINDS}")
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "target", float(self.target))
        if self.kind == "throughput_floor":
            if not 0.0 < self.threshold <= 1.0:
                raise SLOError("throughput_floor threshold must be a "
                               "fraction in (0, 1]")
        elif self.kind == "interference_budget_ns":
            if self.threshold < 0.0:
                raise SLOError("interference budget must be >= 0 ns")
        elif self.threshold <= 0.0:
            raise SLOError(f"{self.kind} threshold must be positive")
        if not 0.0 < self.target <= 1.0:
            raise SLOError("SLO target must be a fraction in (0, 1]")


@dataclass(frozen=True)
class TenantSLO:
    """A tenant's objective bundle (at most one objective per kind)."""

    objectives: Tuple[SLOSpec, ...]

    def __post_init__(self) -> None:
        # Lazy: repro.scenario.spec imports this module lazily too.
        from repro.scenario.spec import from_dict

        objectives = tuple(
            obj if isinstance(obj, SLOSpec)
            else from_dict(SLOSpec, obj, f"objectives.{index}")
            for index, obj in enumerate(self.objectives))
        object.__setattr__(self, "objectives", objectives)
        if not objectives:
            raise SLOError("a TenantSLO needs at least one objective")
        kinds = [obj.kind for obj in objectives]
        if len(set(kinds)) != len(kinds):
            raise SLOError(f"duplicate SLO kinds: {sorted(kinds)}")

    def objective(self, kind: str) -> Optional[SLOSpec]:
        for obj in self.objectives:
            if obj.kind == kind:
                return obj
        return None


# ----------------------------------------------------------------------
# Burn-rate computation
# ----------------------------------------------------------------------


def bad_count_above(hist: Histogram, threshold: float) -> int:
    """Observations strictly above ``threshold``, bucket-resolved.

    Exact when ``threshold`` sits on a bucket bound (the scorecard
    aligns its thresholds with the default ladder); otherwise the
    partially-covered bucket counts as *good* — the conservative
    direction for an upper-latency objective.
    """
    edge = bisect_left(hist.bounds, threshold)
    return sum(hist.counts[edge + 1:])


def latency_burn(hist: Optional[Histogram], threshold: float,
                 target: float) -> float:
    """Budget-consumption speed of one window's latency deltas."""
    if hist is None or not hist.count:
        return 0.0
    bad_fraction = bad_count_above(hist, threshold) / hist.count
    budget = 1.0 - target
    if budget <= 0.0:
        return BURN_CAP if bad_fraction > 0.0 else 0.0
    return min(bad_fraction / budget, BURN_CAP)


def interference_burn(wait_ns: float, duration_ns: float,
                      threshold_ns: float, horizon_ns: float) -> float:
    """Budget-consumption speed of one window's cross-tenant wait."""
    if wait_ns <= 0.0 or duration_ns <= 0.0 or horizon_ns <= 0.0:
        return 0.0
    if threshold_ns <= 0.0:
        return BURN_CAP  # zero budget: any attributed wait is a page
    rate = wait_ns / duration_ns
    budget_rate = threshold_ns / horizon_ns
    return min(rate / budget_rate, BURN_CAP)


# ----------------------------------------------------------------------
# End-of-run evaluation (the scorecard's cells)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectiveResult:
    """One scored objective: what was required, what was measured."""

    kind: str
    threshold: float
    target: float
    measured: float
    passed: bool
    detail: str = ""


def evaluate_tenant(slo: TenantSLO, *,
                    latency: Optional[Histogram] = None,
                    offered: int = 0, completed: int = 0,
                    cross_tenant_wait_ns: float = 0.0,
                    teardown_ns: Optional[float] = None,
                    ) -> List[ObjectiveResult]:
    """Score one tenant's cumulative run state against its objectives.

    Objective order follows the spec's declaration order, so two runs
    of the same scenario render byte-identical scorecards.
    """
    results: List[ObjectiveResult] = []
    for obj in slo.objectives:
        if obj.kind == "p99_latency_ns":
            if latency is None or not latency.count:
                measured, passed = 1.0, True
                detail = "no latency samples"
            else:
                bad = bad_count_above(latency, obj.threshold)
                measured = 1.0 - bad / latency.count
                passed = measured >= obj.target
                detail = (f"p99={latency.p99:.0f}ns "
                          f"bad={bad}/{latency.count}")
        elif obj.kind == "throughput_floor":
            measured = completed / offered if offered else 1.0
            passed = measured >= obj.threshold
            detail = f"completed={completed}/{offered}"
        elif obj.kind == "interference_budget_ns":
            measured = cross_tenant_wait_ns
            passed = measured <= obj.threshold
            detail = f"xwait={measured:.0f}ns"
        else:  # teardown_deadline_ns
            if teardown_ns is None:
                measured, passed = 0.0, True
                detail = "teardown not exercised"
            else:
                measured = teardown_ns
                passed = measured <= obj.threshold
                detail = f"teardown={measured:.0f}ns"
        results.append(ObjectiveResult(
            kind=obj.kind, threshold=obj.threshold, target=obj.target,
            measured=measured, passed=passed, detail=detail))
    return results


# ----------------------------------------------------------------------
# Multi-window burn-rate alerting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BurnRateTier:
    """One severity tier: a fast/slow window pair and its threshold.

    The SRE multi-window recipe: fire only when *both* the fast window
    (catches the excursion quickly) and the slow window (filters
    one-window blips) burn above ``burn_threshold``.
    """

    name: str
    fast_windows: int
    slow_windows: int
    burn_threshold: float

    def __post_init__(self) -> None:
        if self.fast_windows < 1 or self.slow_windows < self.fast_windows:
            raise SLOError("tier windows must satisfy "
                           "1 <= fast_windows <= slow_windows")
        if self.burn_threshold <= 0.0:
            raise SLOError("tier burn_threshold must be positive")


#: Scaled-down Google-SRE defaults: a page catches fast budget
#: exhaustion (≥ 8× over a 1/6-window pair), a ticket a slow leak
#: (≥ 2× over a 3/12-window pair).
DEFAULT_TIERS: Tuple[BurnRateTier, ...] = (
    BurnRateTier("page", fast_windows=1, slow_windows=6,
                 burn_threshold=8.0),
    BurnRateTier("ticket", fast_windows=3, slow_windows=12,
                 burn_threshold=2.0),
)


@dataclass(frozen=True)
class BurnRateAlert:
    """One fired alert (the edge of an excursion, not every window)."""

    tenant: int
    kind: str
    tier: str
    fast_burn: float
    slow_burn: float
    window_index: int
    ts_ns: float


class BurnRateAlerter:
    """Judge window snapshots against tenant SLOs, tier by tier.

    Attach as a :class:`~repro.obs.windows.WindowedAggregator`'s
    ``on_rotate`` callback (or feed snapshots to :meth:`observe`
    directly).  Only :data:`ALERTABLE_KINDS` are windowed — throughput
    floors and teardown deadlines are end-of-run judgements with no
    meaningful per-window rate.
    """

    def __init__(self, tenant_slos: Dict[int, TenantSLO],
                 horizon_ns: float,
                 tiers: Tuple[BurnRateTier, ...] = DEFAULT_TIERS) -> None:
        if horizon_ns <= 0.0:
            raise SLOError("alerting horizon_ns must be positive")
        self.tenant_slos = dict(tenant_slos)
        self.horizon_ns = float(horizon_ns)
        self.tiers = tuple(tiers)
        self.alerts: List[BurnRateAlert] = []
        depth = max((t.slow_windows for t in self.tiers), default=1)
        self._burns: Dict[Tuple[int, str], Deque[float]] = {}
        self._depth = depth
        #: ``(tenant, kind, tier) -> currently firing`` for edge
        #: triggering: one alert per excursion, re-armed on recovery.
        self._firing: Dict[Tuple[int, str, str], bool] = {}

    def _burn_for(self, tenant: int, obj: SLOSpec,
                  snapshot: WindowSnapshot,
                  xwait_by_victim: Dict[str, float]) -> float:
        if obj.kind == "p99_latency_ns":
            delta = snapshot.histogram(LATENCY_METRIC, tenant=tenant)
            return latency_burn(delta, obj.threshold, obj.target)
        wait = xwait_by_victim.get(str(tenant), 0.0)
        return interference_burn(wait, snapshot.duration_ns,
                                 obj.threshold, self.horizon_ns)

    def observe(self, snapshot: WindowSnapshot) -> List[BurnRateAlert]:
        """Judge one finished window; returns alerts fired by it."""
        fired: List[BurnRateAlert] = []
        xwait = snapshot.cross_tenant_wait_by_victim()
        for tenant in sorted(self.tenant_slos):
            slo = self.tenant_slos[tenant]
            for obj in slo.objectives:
                if obj.kind not in ALERTABLE_KINDS:
                    continue
                key = (tenant, obj.kind)
                burns = self._burns.get(key)
                if burns is None:
                    burns = deque(maxlen=self._depth)
                    self._burns[key] = burns
                burns.append(self._burn_for(tenant, obj, snapshot, xwait))
                for tier in self.tiers:
                    fired.extend(self._judge_tier(
                        tenant, obj.kind, tier, burns, snapshot))
        self.alerts.extend(fired)
        return fired

    def _judge_tier(self, tenant: int, kind: str, tier: BurnRateTier,
                    burns: Deque[float], snapshot: WindowSnapshot,
                    ) -> List[BurnRateAlert]:
        recent = list(burns)
        fast = recent[-tier.fast_windows:]
        slow = recent[-tier.slow_windows:]
        fast_burn = sum(fast) / len(fast)
        slow_burn = sum(slow) / len(slow)
        condition = (fast_burn >= tier.burn_threshold
                     and slow_burn >= tier.burn_threshold)
        firing_key = (tenant, kind, tier.name)
        was_firing = self._firing.get(firing_key, False)
        self._firing[firing_key] = condition
        if not condition or was_firing:
            return []
        alert = BurnRateAlert(
            tenant=tenant, kind=kind, tier=tier.name,
            fast_burn=fast_burn, slow_burn=slow_burn,
            window_index=snapshot.index, ts_ns=snapshot.end_ns)
        self._emit(alert)
        return [alert]

    def _emit(self, alert: BurnRateAlert) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "slo.burn_alert", ts_ns=alert.ts_ns, tenant=alert.tenant,
                track="slo", cat="slo", kind=alert.kind, tier=alert.tier,
                fast_burn=alert.fast_burn, slow_burn=alert.slow_burn)
        if CELL.audit.enabled:
            CELL.audit.append(
                "slo.alert", tenant=alert.tenant, ts_ns=alert.ts_ns,
                objective=alert.kind, tier=alert.tier,
                fast_burn=alert.fast_burn, slow_burn=alert.slow_burn,
                window_index=alert.window_index)

    def alert_dicts(self) -> List[Dict[str, Any]]:
        return [asdict(alert) for alert in self.alerts]
