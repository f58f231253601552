"""Tests for repro.obs.openmetrics: exporter, merging, and checker."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.hw.events import Simulator
from repro.obs.interference import InterferenceAccountant
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import (
    main as checker_main,
    merge_families,
    registry_families,
    render,
    render_families,
    validate_text,
    window_families,
    write,
)
from repro.obs.windows import WindowedAggregator


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    reg.counter("slo_alerts_total", tenant=1).inc(3)
    reg.gauge("slo_budget_fraction", tenant=1).set(0.25)
    hist = reg.histogram("slo_latency_ns", tenant=1)
    hist.observe(500.0)
    hist.observe(90_000.0)
    return reg


class TestRendering:
    def test_counter_family_drops_total_suffix(self, registry):
        text = render(registry=registry)
        assert "# TYPE slo_alerts counter" in text
        assert 'slo_alerts_total{tenant="1"} 3' in text

    def test_gauge_family(self, registry):
        text = render(registry=registry)
        assert "# TYPE slo_budget_fraction gauge" in text
        assert 'slo_budget_fraction{tenant="1"} 0.25' in text

    def test_histogram_cumulative_buckets(self, registry):
        text = render(registry=registry)
        assert "# TYPE slo_latency_ns histogram" in text
        assert 'le="+Inf"' in text
        assert 'slo_latency_ns_count{tenant="1"} 2' in text
        assert 'slo_latency_ns_sum{tenant="1"} 90500' in text
        # Buckets are cumulative: the +Inf bucket equals the count.
        inf_lines = [ln for ln in text.splitlines()
                     if ln.startswith("slo_latency_ns_bucket")
                     and 'le="+Inf"' in ln]
        assert inf_lines and inf_lines[0].endswith(" 2")

    def test_ends_with_eof(self, registry):
        text = render(registry=registry)
        assert text.endswith("# EOF\n")

    def test_extra_labels_applied(self, registry):
        families = registry_families(registry,
                                     extra_labels={"arbiter": "fcfs"})
        samples = [s for _, _, sams in families for s in sams]
        assert all(s[1].get("arbiter") == "fcfs" for s in samples)

    def test_deterministic_output(self, registry):
        assert render(registry=registry) == render(registry=registry)

    def test_write_and_check_file(self, registry, tmp_path, capsys):
        path = tmp_path / "metrics.om"
        write(str(path), registry=registry)
        assert checker_main([str(path)]) == 0
        assert "openmetrics: OK" in capsys.readouterr().out

    def test_checker_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.om"
        path.write_text("slo_x_total{tenant=\"1\"} nope\n# EOF\n")
        assert checker_main([str(path)]) == 1


class TestWindowFamilies:
    def _windows(self, registry):
        accountant = InterferenceAccountant(registry)
        agg = WindowedAggregator(Simulator(), window_ns=100,
                                 accountant=accountant)
        agg.start()
        accountant.blame("bus", victim=1, culprit=2, wait_ns=2.0)
        accountant.blame("bus", victim=2, culprit=2, wait_ns=5.0)
        agg.rotate(now_ns=100)
        registry.histogram("slo_latency_ns", tenant=1).observe(700.0)
        agg.rotate(now_ns=200)
        return agg.snapshots

    def test_window_series_render_and_validate(self, registry):
        snapshots = self._windows(registry)
        text = render(registry=registry, windows=snapshots)
        assert "slo_window_end_ns" in text
        assert "slo_window_delta" in text
        assert "slo_window_p99_ns" in text
        assert validate_text(text) == []

    def test_window_delta_values(self, registry):
        snapshots = self._windows(registry)
        families = window_families(snapshots)
        by_name = {name: samples for name, _, samples in families}
        # One sample per (victim, resource) that moved: the self-wait
        # of tenant 2 is not cross-tenant, and window 1 moved nothing.
        assert by_name["slo_window_delta"] == [
            ("slo_window_delta",
             {"window": "0", "metric": "interference_cross_tenant_wait_ns",
              "resource": "bus", "tenant": "1"}, 2.0)]


class TestMergeFamilies:
    def test_merges_same_family_across_exports(self, registry):
        first = registry_families(registry,
                                  extra_labels={"arbiter": "fcfs"})
        second = registry_families(registry,
                                   extra_labels={"arbiter": "drr"})
        merged = merge_families(list(first) + list(second))
        names = [name for name, _, _ in merged]
        assert len(names) == len(set(names))
        text = render_families(merged)
        assert validate_text(text) == []
        assert 'arbiter="fcfs"' in text and 'arbiter="drr"' in text

    def test_kind_conflict_rejected(self):
        with pytest.raises(ValueError):
            merge_families([("x", "counter", [("x_total", {}, 1.0)]),
                            ("x", "gauge", [("x", {}, 1.0)])])


class TestValidator:
    def test_valid_document(self, registry):
        assert validate_text(render(registry=registry)) == []

    def test_missing_eof(self):
        errors = validate_text("# TYPE a gauge\na 1\n")
        assert any("EOF" in e for e in errors)

    def test_duplicate_family(self):
        text = "# TYPE a gauge\na 1\n# TYPE a gauge\na 2\n# EOF\n"
        assert any("duplicate" in e.lower() for e in validate_text(text))

    def test_sample_without_type(self):
        text = "mystery_metric 1\n# EOF\n"
        assert validate_text(text)

    def test_counter_must_be_total_and_nonnegative(self):
        bad_name = "# TYPE a counter\na 1\n# EOF\n"
        assert validate_text(bad_name)
        negative = "# TYPE a counter\na_total -1\n# EOF\n"
        assert validate_text(negative)

    def test_bucket_order_enforced(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="10"} 5\n'
                'h_bucket{le="5"} 1\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_count 5\n"
                "h_sum 12\n"
                "# EOF\n")
        assert validate_text(text)

    def test_missing_inf_bucket(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="10"} 5\n'
                "h_count 5\n"
                "h_sum 12\n"
                "# EOF\n")
        assert any("+Inf" in e for e in validate_text(text))

    def test_non_cumulative_buckets(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="5"} 5\n'
                'h_bucket{le="10"} 3\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_count 5\n"
                "h_sum 12\n"
                "# EOF\n")
        assert validate_text(text)


class TestCheckerCommand:
    def test_valid_file_passes_with_empty_stderr(self, registry, tmp_path):
        """``python -m repro.obs.openmetrics FILE``, as CI runs it: exit
        0, the sample count on stdout, nothing on stderr (no runpy
        warning about the module being imported before it runs)."""
        path = tmp_path / "export.om"
        write(str(path), registry=registry)
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro.obs.openmetrics", str(path)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert result.returncode == 0
        assert result.stdout.startswith("openmetrics: OK (")
        assert result.stderr == ""
