"""Tests for repro.obs.slo: specs, evaluation, burn-rate alerting."""

import json
import re
from dataclasses import asdict

import pytest

from repro.hw.events import Simulator
from repro.obs import auditlog
from repro.obs.bench import isolate
from repro.obs.interference import InterferenceAccountant
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import (
    BURN_CAP,
    DEFAULT_TIERS,
    LATENCY_METRIC,
    BurnRateAlerter,
    BurnRateTier,
    SLOError,
    SLOSpec,
    TenantSLO,
    bad_count_above,
    evaluate_tenant,
    interference_burn,
    latency_burn,
)
from repro.obs.windows import WindowedAggregator
from repro.scenario.spec import SpecError, from_dict, to_dict


class TestSLOSpec:
    def test_valid_kinds_and_coercion(self):
        spec = SLOSpec(kind="p99_latency_ns", threshold=1000, target=1)
        assert spec.threshold == 1000.0 and isinstance(spec.threshold, float)
        assert spec.target == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(SLOError):
            SLOSpec(kind="availability", threshold=0.999)

    def test_throughput_floor_must_be_fraction(self):
        SLOSpec(kind="throughput_floor", threshold=1.0)
        with pytest.raises(SLOError):
            SLOSpec(kind="throughput_floor", threshold=1.5)
        with pytest.raises(SLOError):
            SLOSpec(kind="throughput_floor", threshold=0.0)

    def test_interference_budget_zero_is_legal(self):
        # S-NIC's own §4.5 contract: zero cross-tenant wait.
        spec = SLOSpec(kind="interference_budget_ns", threshold=0.0)
        assert spec.threshold == 0.0
        with pytest.raises(SLOError):
            SLOSpec(kind="interference_budget_ns", threshold=-1.0)

    def test_latency_threshold_must_be_positive(self):
        with pytest.raises(SLOError):
            SLOSpec(kind="p99_latency_ns", threshold=0.0)

    def test_target_validation(self):
        with pytest.raises(SLOError):
            SLOSpec(kind="p99_latency_ns", threshold=100.0, target=0.0)
        with pytest.raises(SLOError):
            SLOSpec(kind="p99_latency_ns", threshold=100.0, target=1.01)

    def test_round_trip(self):
        spec = SLOSpec(kind="teardown_deadline_ns", threshold=5e5,
                       target=0.95)
        clone = from_dict(SLOSpec, json.loads(json.dumps(to_dict(spec))))
        assert clone == spec


class TestTenantSLO:
    def test_requires_objectives(self):
        with pytest.raises(SLOError):
            TenantSLO(objectives=())

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(SLOError):
            TenantSLO(objectives=(
                SLOSpec(kind="p99_latency_ns", threshold=100.0),
                SLOSpec(kind="p99_latency_ns", threshold=200.0)))

    def test_dict_members_coerced(self):
        slo = TenantSLO(objectives=(
            {"kind": "throughput_floor", "threshold": 0.9},))
        assert slo.objective("throughput_floor").threshold == 0.9
        assert slo.objective("p99_latency_ns") is None

    def test_misspelled_objective_key_rejected(self):
        # A typo used to keep the default target silently.
        with pytest.raises(SpecError, match=re.escape(
                "objectives.0: unknown SLOSpec fields: ['traget']")):
            TenantSLO(objectives=({"kind": "p99_latency_ns",
                                   "threshold": 1000.0, "traget": 0.5},))

    def test_round_trip(self):
        slo = TenantSLO(objectives=(
            SLOSpec(kind="p99_latency_ns", threshold=5600.0, target=0.99),
            SLOSpec(kind="interference_budget_ns", threshold=0.0)))
        clone = from_dict(TenantSLO, json.loads(json.dumps(to_dict(slo))))
        assert clone == slo


class TestBurnMath:
    def _hist(self, values):
        hist = Histogram("slo_latency_ns", ())
        for value in values:
            hist.observe(value)
        return hist

    def test_bad_count_exact_on_bucket_bound(self):
        hist = self._hist([500.0, 1000.0, 1500.0, 2000.0])
        # 1000.0 is a default-ladder bound: observations <= 1000 good.
        assert bad_count_above(hist, 1000.0) == 2

    def test_latency_burn_scales_with_bad_fraction(self):
        hist = self._hist([500.0] * 9 + [99_000.0])
        # 10% bad against a 1% budget -> burn 10.
        assert latency_burn(hist, 1000.0, target=0.99) == pytest.approx(10.0)

    def test_latency_burn_zero_budget_caps(self):
        hist = self._hist([500.0, 99_000.0])
        assert latency_burn(hist, 1000.0, target=1.0) == BURN_CAP

    def test_latency_burn_empty_histogram(self):
        assert latency_burn(None, 1000.0, 0.99) == 0.0
        assert latency_burn(self._hist([]), 1000.0, 0.99) == 0.0

    def test_interference_burn_proration(self):
        # Spending the whole budget's rate in one window -> burn = 1.
        burn = interference_burn(wait_ns=100.0, duration_ns=1000.0,
                                 threshold_ns=1000.0, horizon_ns=10_000.0)
        assert burn == pytest.approx(1.0)

    def test_interference_burn_zero_budget_caps(self):
        assert interference_burn(1.0, 1000.0, 0.0, 10_000.0) == BURN_CAP
        assert interference_burn(0.0, 1000.0, 0.0, 10_000.0) == 0.0


class TestEvaluateTenant:
    def _slo(self):
        return TenantSLO(objectives=(
            SLOSpec(kind="p99_latency_ns", threshold=1000.0, target=0.9),
            SLOSpec(kind="throughput_floor", threshold=0.9),
            SLOSpec(kind="interference_budget_ns", threshold=100.0),
            SLOSpec(kind="teardown_deadline_ns", threshold=1000.0)))

    def test_all_pass(self):
        hist = Histogram("slo_latency_ns", ())
        for _ in range(10):
            hist.observe(500.0)
        results = evaluate_tenant(
            self._slo(), latency=hist, offered=10, completed=10,
            cross_tenant_wait_ns=0.0, teardown_ns=900.0)
        assert [r.kind for r in results] == [
            "p99_latency_ns", "throughput_floor",
            "interference_budget_ns", "teardown_deadline_ns"]
        assert all(r.passed for r in results)

    def test_latency_objective_fails_on_bad_fraction(self):
        hist = Histogram("slo_latency_ns", ())
        for _ in range(8):
            hist.observe(500.0)
        hist.observe(5000.0)
        hist.observe(5000.0)
        results = evaluate_tenant(self._slo(), latency=hist, offered=10,
                                  completed=10)
        latency = results[0]
        assert latency.measured == pytest.approx(0.8)
        assert not latency.passed

    def test_no_samples_passes_vacuously(self):
        results = evaluate_tenant(self._slo(), latency=None)
        assert results[0].passed
        assert "no latency samples" in results[0].detail

    def test_throughput_and_interference_failures(self):
        results = evaluate_tenant(self._slo(), offered=10, completed=5,
                                  cross_tenant_wait_ns=500.0)
        by_kind = {r.kind: r for r in results}
        assert not by_kind["throughput_floor"].passed
        assert not by_kind["interference_budget_ns"].passed
        assert by_kind["interference_budget_ns"].measured == 500.0

    def test_teardown_not_exercised_passes(self):
        results = evaluate_tenant(self._slo(), teardown_ns=None)
        by_kind = {r.kind: r for r in results}
        assert by_kind["teardown_deadline_ns"].passed
        results = evaluate_tenant(self._slo(), teardown_ns=2000.0)
        by_kind = {r.kind: r for r in results}
        assert not by_kind["teardown_deadline_ns"].passed

    def test_results_are_jsonable(self):
        results = evaluate_tenant(self._slo())
        payload = json.loads(json.dumps([asdict(r) for r in results]))
        assert len(payload) == 4


class TestBurnRateTiers:
    def test_default_tiers(self):
        names = [t.name for t in DEFAULT_TIERS]
        assert names == ["page", "ticket"]

    def test_tier_validation(self):
        with pytest.raises(SLOError):
            BurnRateTier("x", fast_windows=0, slow_windows=1,
                         burn_threshold=1.0)
        with pytest.raises(SLOError):
            BurnRateTier("x", fast_windows=4, slow_windows=2,
                         burn_threshold=1.0)
        with pytest.raises(SLOError):
            BurnRateTier("x", fast_windows=1, slow_windows=2,
                         burn_threshold=0.0)


class TestBurnRateAlerter:
    def _setup(self, registry, threshold=1000.0, target=0.9):
        sim = Simulator()
        slo = TenantSLO(objectives=(
            SLOSpec(kind="p99_latency_ns", threshold=threshold,
                    target=target),))
        alerter = BurnRateAlerter({1: slo}, horizon_ns=10_000.0)
        agg = WindowedAggregator(sim, window_ns=100,
                                 accountant=InterferenceAccountant(registry),
                                 on_rotate=alerter.observe)
        agg.start()
        return agg, alerter, registry.histogram(LATENCY_METRIC, tenant=1)

    def test_horizon_must_be_positive(self):
        with pytest.raises(SLOError):
            BurnRateAlerter({}, horizon_ns=0.0)

    def test_page_fires_on_sustained_burn(self):
        agg, alerter, hist = self._setup(MetricsRegistry())
        for i in range(3):
            hist.observe(50_000.0)  # every sample blows the threshold
            agg.rotate(now_ns=(i + 1) * 100)
        tiers = [a.tier for a in alerter.alerts]
        assert "page" in tiers and "ticket" in tiers

    def test_edge_triggering_one_alert_per_excursion(self):
        agg, alerter, hist = self._setup(MetricsRegistry())
        for i in range(6):
            hist.observe(50_000.0)
            agg.rotate(now_ns=(i + 1) * 100)
        pages = [a for a in alerter.alerts if a.tier == "page"]
        assert len(pages) == 1  # sustained excursion, single page

    def test_rearm_after_recovery(self):
        agg, alerter, hist = self._setup(MetricsRegistry())
        hist.observe(50_000.0)
        agg.rotate(now_ns=100)  # fires page (fast=1 window)
        for i in range(7):
            hist.observe(10.0)  # good traffic drains the averages
            agg.rotate(now_ns=200 + i * 100)
        for i in range(6):
            # A second sustained excursion: enough bad windows that the
            # 6-window slow average climbs back over the page threshold.
            hist.observe(50_000.0)
            agg.rotate(now_ns=1000 + i * 100)
        pages = [a for a in alerter.alerts if a.tier == "page"]
        assert len(pages) == 2

    def test_quiet_tenant_never_alerts(self):
        agg, alerter, hist = self._setup(MetricsRegistry())
        for i in range(5):
            hist.observe(10.0)
            agg.rotate(now_ns=(i + 1) * 100)
        assert alerter.alerts == []

    def test_interference_alerting_from_snapshot_deltas(self):
        accountant = InterferenceAccountant(MetricsRegistry())
        sim = Simulator()
        slo = TenantSLO(objectives=(
            SLOSpec(kind="interference_budget_ns", threshold=0.0),))
        alerter = BurnRateAlerter({1: slo}, horizon_ns=10_000.0)
        agg = WindowedAggregator(sim, window_ns=100, accountant=accountant,
                                 on_rotate=alerter.observe)
        agg.start()
        accountant.blame("bus", victim=1, culprit=2, wait_ns=50.0)
        agg.rotate(now_ns=100)
        assert alerter.alerts
        assert alerter.alerts[0].kind == "interference_budget_ns"
        assert alerter.alerts[0].fast_burn == BURN_CAP

    def test_alerts_witnessed_in_audit_log(self):
        auditlog.enable_audit_log()
        try:
            agg, alerter, hist = self._setup(MetricsRegistry())
            hist.observe(50_000.0)
            agg.rotate(now_ns=100)
            log = auditlog.get_audit_log()
            kinds = [record["kind"] for record in log.records]
            assert "slo.alert" in kinds
            assert log.verify_chain() is None
        finally:
            isolate()

    def test_alert_dicts_jsonable(self):
        agg, alerter, hist = self._setup(MetricsRegistry())
        hist.observe(50_000.0)
        agg.rotate(now_ns=100)
        payload = json.loads(json.dumps(alerter.alert_dicts()))
        assert payload and payload[0]["tenant"] == 1
