"""The isolation scorecard: commodity interferes on every resource,
S-NIC attributes exactly zero, and the whole audit is deterministic."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.audit import (
    format_scorecard_markdown,
    format_scorecard_text,
    main as audit_main,
    run_audit,
)
from repro.obs.bench import format_json
from repro.obs.interference import RESOURCES


@pytest.fixture(scope="module")
def scorecard():
    """One quick audit shared by the module (the audit resets the
    registry itself, so it does not interact with the per-test reset)."""
    return run_audit(quick=True)


class TestVerdict:
    def test_quick_audit_passes(self, scorecard):
        assert scorecard["verdict"] == {"pass": True, "reasons": []}

    def test_commodity_attributes_cross_tenant_wait_everywhere(
            self, scorecard):
        resources = scorecard["configs"]["commodity"]["resources"]
        for res in RESOURCES:
            report = resources[res]
            assert report["cross_tenant_wait_ns"] > 0.0, res
            assert report["cross_tenant_events"] > 0.0, res

    def test_snic_attributes_exactly_zero_cross_tenant(self, scorecard):
        snic = scorecard["configs"]["snic"]
        assert snic["cross_tenant_wait_ns"] == 0.0
        assert snic["cross_tenant_events"] == 0.0
        for res in RESOURCES:
            assert snic["resources"][res]["cross_tenant_wait_ns"] == 0.0

    def test_cotenancy_slows_the_commodity_victim(self, scorecard):
        resources = scorecard["configs"]["commodity"]["resources"]
        for res in ("bus", "dram", "dma", "cores"):
            report = resources[res]
            assert report["cotenant"] > report["solo"], res
            assert report["slowdown"] > 1.0, res

    def test_zero_baseline_reports_null_slowdown(self, scorecard):
        # The cache victim's solo miss rate is 0 (resident working set),
        # so the ratio is meaningless — null, never Infinity.
        cache = scorecard["configs"]["commodity"]["resources"]["cache"]
        assert cache["solo"] == 0.0
        assert cache["slowdown"] is None

    def test_snic_victim_is_cotenant_invariant(self, scorecard):
        resources = scorecard["configs"]["snic"]["resources"]
        for res in RESOURCES:
            report = resources[res]
            assert report["cotenant"] == report["solo"], res

    def test_side_channels_close_under_snic(self, scorecard):
        for channel, by_config in scorecard["side_channels"].items():
            assert by_config["commodity"]["capacity_bits_per_symbol"] > 0.5, \
                channel
            assert by_config["snic"]["closed"], channel
            assert by_config["snic"]["capacity_bits_per_symbol"] == 0.0

    def test_noninterference_harness_is_clean(self, scorecard):
        assert scorecard["noninterference"]["violations"] == 0

    def test_latency_percentiles_where_latency_is_the_metric(
            self, scorecard):
        commodity = scorecard["configs"]["commodity"]["resources"]
        for res in ("bus", "dram", "dma"):
            pct = commodity[res]["cotenant_latency_percentiles"]
            assert pct is not None, res
            assert pct["p50"] <= pct["p95"] <= pct["p99"]
            assert pct["count"] == scorecard["rounds_per_workload"]
        assert commodity["cores"]["cotenant_latency_percentiles"] is None


class TestDeterminism:
    def test_two_audits_are_byte_identical(self, scorecard):
        again = run_audit(quick=True)
        assert format_json(scorecard) == \
            format_json(again)


class TestRendering:
    def test_json_is_valid_and_sorted(self, scorecard):
        rendered = format_json(scorecard)
        payload = json.loads(rendered)
        assert payload["schema"] == scorecard["schema"]
        assert rendered == json.dumps(payload, indent=2,
                                      sort_keys=True) + "\n"

    def test_text_contains_the_verdict_and_every_resource(self, scorecard):
        text = format_scorecard_text(scorecard)
        assert "VERDICT: PASS" in text
        for res in RESOURCES:
            assert res in text
        assert "blame matrix" in text
        assert "side channels" in text

    def test_markdown_renders_tables(self, scorecard):
        md = format_scorecard_markdown(scorecard)
        assert md.startswith("# repro audit")
        assert "**Verdict: PASS**" in md
        assert "| bus |" in md

    def test_failing_scorecard_renders_reasons(self, scorecard):
        broken = dict(scorecard)
        broken["verdict"] = {"pass": False, "reasons": ["made-up reason"]}
        assert "made-up reason" in format_scorecard_text(broken)
        assert "made-up reason" in format_scorecard_markdown(broken)


class TestCli:
    def test_cli_quick_json_exits_zero(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "scorecard.json"
        code = audit_main(["--quick", "--format", "json",
                           "--out", str(path)], stream=out)
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["verdict"]["pass"] is True
        assert path.read_text() == out.getvalue()

    def test_cli_default_format_is_text(self):
        out = io.StringIO()
        assert audit_main(["--quick"], stream=out) == 0
        assert "isolation scorecard" in out.getvalue()
