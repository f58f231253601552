"""Post-mortem bundles: deterministic assembly, self-verifying audit
tails, tamper detection through the CLI, and the chaos/matrix wiring."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import auditlog, metrics, postmortem
from repro.obs.bench import isolate
from repro.obs.postmortem import (
    build_bundle,
    bundle_path,
    diff_bundles,
    format_bundle,
    load_bundle,
    verify_bundle,
    write_bundle,
)


def drive_forensics(seed: int = 3) -> None:
    """Deterministically fill the audit log and the registry (same seed
    → same state)."""
    log = auditlog.enable_audit_log()
    for i in range(seed + 4):
        log.append("tlb.install", tenant=i % 2, bank=f"core{i % 2}",
                   vbase=i * 4096, size=4096)
    log.append("memory.scrub", tenant=0, pages=seed, scrubbed=True)
    metrics.get_registry().counter(
        "fixture_pm_total", tenant=0).inc(seed)


class _Spec:
    """Stand-in ScenarioSpec: just the surface build_bundle touches."""

    seed = 42

    @staticmethod
    def to_dict():
        return {"name": "pm-fixture", "seed": 42}


class TestBundleAssembly:
    def test_bundle_shape(self):
        drive_forensics()
        bundle = build_bundle(reason=ValueError("boom"), spec=_Spec())
        assert bundle["schema"] == postmortem.SCHEMA
        assert bundle["schema_version"] == postmortem.SCHEMA_VERSION
        assert bundle["reason"] == {"kind": "ValueError",
                                    "message": "boom"}
        assert bundle["scenario"] == {"name": "pm-fixture", "seed": 42}
        assert bundle["seed"] == 42
        assert bundle["audit"]["n_records"] == len(
            auditlog.get_audit_log())
        assert bundle["audit"]["chain_head"] == \
            auditlog.get_audit_log().head()
        assert bundle["flight"]["entries"]
        assert isinstance(bundle["metrics"], list)
        assert "cross_tenant_wait_ns" in bundle["interference"]

    def test_reason_normalization(self):
        assert build_bundle(reason="note text")["reason"] == \
            {"kind": "note", "message": "note text"}
        assert build_bundle(reason={"kind": "FaultInjected",
                                    "message": "m"})["reason"] == \
            {"kind": "FaultInjected", "message": "m"}

    def test_bundle_without_spec(self):
        bundle = build_bundle(reason="r")
        assert bundle["scenario"] is None and bundle["seed"] is None

    def test_fresh_bundle_verifies(self):
        drive_forensics()
        assert verify_bundle(build_bundle(reason="r")) == []

    def test_empty_bundle_verifies(self):
        assert verify_bundle(build_bundle(reason="r")) == []

    def test_tail_limit_truncates_but_still_verifies(self):
        drive_forensics(seed=9)
        bundle = build_bundle(reason="r", tail=4)
        assert len(bundle["audit"]["records"]) == 4
        assert bundle["audit"]["n_records"] > 4
        assert verify_bundle(bundle) == []


def _as_flight_entry(record):
    """An audit record as the bundle's flight section shows it."""
    return {"kind": "audit", "name": record["kind"],
            "ts_ns": record["ts_ns"], "tenant": record["tenant"],
            "track": "audit", "args": record["detail"]}


def test_long_chain_flight_section_keeps_a_512_entry_count(tmp_path):
    """600 records: the flight section counts at most 512 entries and
    shows the same 64-record tail as the audit section, mapped."""
    from repro.hw.mmu import TLB
    from repro.obs.bench import cell_scope

    path = str(tmp_path / "long.json")
    with cell_scope(bundle=path, note="600 records"):
        bank = TLB(capacity=4, name="core0")
        for _ in range(600):
            bank.clear()
    bundle = load_bundle(path)
    records = bundle["audit"]["records"]
    assert bundle["audit"]["n_records"] == 600
    assert len(records) == postmortem.DEFAULT_TAIL
    assert records[-1]["seq"] == 599
    assert bundle["flight"]["capacity"] == 512
    assert bundle["flight"]["window_ns"] is None
    assert bundle["flight"]["n_entries"] == 512
    assert bundle["flight"]["entries"] == [
        _as_flight_entry(record) for record in records]


class TestDeterminism:
    def test_same_seed_bundles_are_byte_identical(self):
        """The acceptance gate: two same-seed runs → identical bytes."""
        blobs = []
        for _ in range(2):
            isolate()
            drive_forensics(seed=5)
            bundle = build_bundle(reason={"kind": "IsolationViolation",
                                          "message": "x"}, spec=_Spec())
            blobs.append(json.dumps(bundle, indent=2, sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_different_seeds_differ(self):
        blobs = []
        for seed in (5, 6):
            isolate()
            drive_forensics(seed=seed)
            bundle = build_bundle(reason="r")
            blobs.append(json.dumps(bundle, sort_keys=True))
        assert blobs[0] != blobs[1]

    def test_write_bundle_is_deterministic_on_disk(self, tmp_path):
        drive_forensics()
        bundle = build_bundle(reason="r")
        p1 = write_bundle(bundle, str(tmp_path / "a.json"))
        p2 = write_bundle(bundle, str(tmp_path / "b.json"))
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert load_bundle(p1) == bundle


    def test_write_bundle_creates_missing_directories(self, tmp_path):
        drive_forensics()
        bundle = build_bundle(reason="r")
        path = write_bundle(bundle, bundle_path(str(tmp_path / "a" / "b"),
                                                "fresh"))
        assert path.endswith("/a/b/POSTMORTEM_fresh.json")
        assert load_bundle(path) == bundle

    def test_chaos_writes_into_a_directory_it_creates(self, tmp_path):
        from repro.faults.chaos import run_chaos

        directory = tmp_path / "a" / "b"
        report = run_chaos(kinds=["nf_crash"], postmortem_dir=str(directory))
        names = report["postmortem"]["bundles"]
        assert names == ["POSTMORTEM_chaos-nf_crash-snic-s0.json"]
        assert verify_bundle(load_bundle(str(directory / names[0]))) == []


class TestVerification:
    def test_tampered_record_fails_with_offending_index(self):
        drive_forensics()
        bundle = build_bundle(reason="r")
        bundle["audit"]["records"][3]["detail"]["vbase"] = 0xBAD
        problems = verify_bundle(bundle)
        assert problems and "index 3" in problems[0]

    def test_tampered_chain_head_fails(self):
        drive_forensics()
        bundle = build_bundle(reason="r")
        bundle["audit"]["chain_head"] = "0" * 64
        assert any("chain head" in p for p in verify_bundle(bundle))

    def test_one_byte_flip_anywhere_in_the_file_fails(self, tmp_path):
        """Serialize → flip a byte inside the audit section → reload →
        verification must fail (or the JSON must no longer parse)."""
        drive_forensics()
        path = write_bundle(build_bundle(reason="r"),
                            str(tmp_path / "b.json"))
        raw = open(path, "rb").read()
        start = raw.index(b'"audit"')
        end = raw.index(b'"flight"', start)
        checked = 0
        for pos in range(start, end, 97):  # stride: keep the test fast
            original = raw[pos:pos + 1]
            replacement = b"7" if original != b"7" else b"8"
            mutated = raw[:pos] + replacement + raw[pos + 1:]
            try:
                bundle = json.loads(mutated)
            except json.JSONDecodeError:
                continue
            if bundle == json.loads(raw):
                continue
            assert verify_bundle(bundle), \
                f"flip at byte {pos} undetected"
            checked += 1
        assert checked > 3

    def test_flight_section_is_checked_against_the_chain(self):
        drive_forensics()
        bundle = build_bundle(reason="r")
        assert verify_bundle(bundle) == []
        forged = json.loads(json.dumps(bundle))
        forged["flight"]["n_entries"] += 1
        assert verify_bundle(forged) == [
            "flight.n_entries does not match the audit section"]
        forged = json.loads(json.dumps(bundle))
        forged["flight"]["entries"].pop()
        assert verify_bundle(forged) == [
            "flight.entries does not match the audit section"]
        del forged["flight"]
        assert verify_bundle(forged) == ["missing flight section"]

    def test_wrong_schema_is_rejected(self):
        assert verify_bundle({"schema": "other"})
        assert verify_bundle({"schema": postmortem.SCHEMA})


class TestDiff:
    def test_identical_bundles_have_no_diff(self):
        drive_forensics()
        bundle = build_bundle(reason="r")
        assert diff_bundles(bundle, json.loads(
            json.dumps(bundle))) == []

    def test_diff_pinpoints_the_changed_field(self):
        drive_forensics()
        a = build_bundle(reason="r")
        b = json.loads(json.dumps(a))
        b["audit"]["records"][0]["tenant"] = 77
        diffs = diff_bundles(a, b)
        assert any("audit.records[0].tenant" in d for d in diffs)

    def test_diff_reports_missing_keys_and_length(self):
        assert diff_bundles({"a": 1}, {}) == ["a: only in first bundle"]
        assert diff_bundles({}, {"a": 1}) == ["a: only in second bundle"]
        assert "x: length 2 != 1" in diff_bundles({"x": [1, 2]},
                                                  {"x": [1]})


class TestCLI:
    def _write(self, tmp_path, name="POSTMORTEM_t.json", mutate=None):
        drive_forensics()
        bundle = build_bundle(reason=ValueError("boom"), spec=_Spec())
        if mutate:
            mutate(bundle)
        return write_bundle(bundle, str(tmp_path / name))

    def test_pretty_print(self, tmp_path):
        path = self._write(tmp_path)
        out = io.StringIO()
        assert postmortem.main([path], stream=out) == 0
        text = out.getvalue()
        assert "ValueError" in text and "pm-fixture" in text
        assert "audit:" in text and "flight:" in text

    def test_json_format_round_trips(self, tmp_path):
        path = self._write(tmp_path)
        out = io.StringIO()
        assert postmortem.main([path, "--format", "json"],
                               stream=out) == 0
        assert json.loads(out.getvalue()) == load_bundle(path)

    def test_verify_ok(self, tmp_path):
        path = self._write(tmp_path)
        out = io.StringIO()
        assert postmortem.main([path, "--verify"], stream=out) == 0
        assert out.getvalue().startswith("OK")

    def test_verify_ok_line_names_the_chain_and_the_flight_section(
            self, tmp_path):
        path = self._write(tmp_path)
        bundle = load_bundle(path)
        records = bundle["audit"]["records"]
        out = io.StringIO()
        assert postmortem.main([path, "--verify"], stream=out) == 0
        assert out.getvalue() == (
            f"OK: audit chain intact ({len(records)} records in tail, "
            f"head {bundle['audit']['chain_head'][:16]}…); "
            f"flight section matches it ({len(records)} entries)\n")

    def test_verify_fails_on_tamper(self, tmp_path):
        def mutate(bundle):
            bundle["audit"]["records"][1]["kind"] = "forged"
        path = self._write(tmp_path, mutate=mutate)
        out = io.StringIO()
        assert postmortem.main([path, "--verify"], stream=out) == 1
        assert "FAIL" in out.getvalue()

    def test_verify_fails_on_a_forged_flight_entry(self, tmp_path):
        """The audit chain covers the flight section too: an entry
        that is not the rendering of its audit record fails."""
        def mutate(bundle):
            entry = bundle["flight"]["entries"][0]
            entry["tenant"], entry["name"] = 99, "forged"
        path = self._write(tmp_path, mutate=mutate)
        out = io.StringIO()
        assert postmortem.main([path, "--verify"], stream=out) == 1
        assert out.getvalue() == ("FAIL: flight.entries does not match "
                                  "the audit section\n")

    def test_diff_identical_and_divergent(self, tmp_path):
        p1 = self._write(tmp_path, "POSTMORTEM_a.json")
        isolate()
        p2 = self._write(tmp_path, "POSTMORTEM_b.json")
        out = io.StringIO()
        assert postmortem.main([p1, "--diff", p2], stream=out) == 0
        assert "identical" in out.getvalue()

        def mutate(bundle):
            bundle["seed"] = 1337
        isolate()
        p3 = self._write(tmp_path, "POSTMORTEM_c.json", mutate=mutate)
        out = io.StringIO()
        assert postmortem.main([p1, "--diff", p3], stream=out) == 1
        assert "seed" in out.getvalue()

    def test_format_bundle_handles_empty_sections(self):
        text = format_bundle(build_bundle(reason="r"))
        assert "(none attached)" in text

    def test_bundle_path_shape(self):
        assert bundle_path("/tmp/x", "cell-1") == \
            "/tmp/x/POSTMORTEM_cell-1.json"


class TestHarnessWiring:
    def test_chaos_quick_writes_verifying_bundles(self, tmp_path):
        from repro.faults.chaos import run_chaos

        report = run_chaos(seed=0, quick=True,
                           postmortem_dir=str(tmp_path))
        names = report["postmortem"]["bundles"]
        assert names, "chaos --quick should drop at least one bundle"
        for name in names:
            bundle = load_bundle(str(tmp_path / name))
            assert verify_bundle(bundle) == []
            assert bundle["audit"]["records"], name
        # Forensics are disarmed afterwards.
        assert auditlog.get_audit_log().enabled is False

    def test_chaos_report_is_identical_without_postmortem(self, tmp_path):
        from repro.faults.chaos import run_chaos

        with_pm = run_chaos(seed=0, quick=True,
                            postmortem_dir=str(tmp_path))
        plain = run_chaos(seed=0, quick=True)
        with_pm.pop("postmortem")
        assert json.dumps(with_pm, sort_keys=True, default=repr) == \
            json.dumps(plain, sort_keys=True, default=repr)

    def test_matrix_error_cell_drops_a_bundle(self, tmp_path,
                                              monkeypatch):
        from repro.scenario import matrix as matrix_mod
        import repro.scenario.build as build_mod

        cell = matrix_mod.expand(
            matrix_mod.default_axes(quick=True), base_seed=7)[0]

        class Boom:
            def __enter__(self):
                auditlog.get_audit_log().append("denylist.blocked",
                                                tenant=1, op="os_access")
                raise RuntimeError("synthetic cell failure")

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(build_mod, "build_scenario",
                            lambda spec: Boom())
        record = matrix_mod.run_cell(cell, quick=True,
                                     postmortem_dir=str(tmp_path))
        assert record.status == "error"
        path = bundle_path(str(tmp_path), cell.name)
        bundle = load_bundle(path)
        assert verify_bundle(bundle) == []
        assert bundle["reason"]["kind"] == "RuntimeError"
        assert bundle["scenario"]["name"] == cell.name
        kinds = [r["kind"] for r in bundle["audit"]["records"]]
        assert "denylist.blocked" in kinds

    def test_matrix_ok_cell_writes_nothing(self, tmp_path):
        from repro.scenario import matrix as matrix_mod

        cell = matrix_mod.expand(
            matrix_mod.default_axes(quick=True), base_seed=7)[0]
        record = matrix_mod.run_cell(cell, quick=True,
                                     postmortem_dir=str(tmp_path))
        assert record.status == "ok"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc_name", ["IsolationViolation",
                                      "WatchdogTimeout",
                                      "RecoveryExhausted"])
def test_reason_kinds_for_the_containment_exceptions(exc_name):
    from repro.core import errors

    exc_cls = getattr(errors, exc_name)
    try:
        bundle = build_bundle(reason=exc_cls("why"))
    except TypeError:
        # Some exceptions require structured args; build directly.
        bundle = build_bundle(reason={"kind": exc_name, "message": "why"})
    assert bundle["reason"]["kind"] == exc_name
