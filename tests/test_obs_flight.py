"""A post-mortem bundle's flight section: the audit tail rendered as
flight entries, with an entry count capped at the section's capacity.

The hash-chained audit log is the one sink for security records; the
flight section is a pure function of a bundle's audit section, so
``postmortem --verify`` checks it against the chain."""

from __future__ import annotations

import json

from repro.hw.mmu import TLB
from repro.obs import auditlog
from repro.obs.auditlog import AuditLog
from repro.obs.bench import isolate
from repro.obs.postmortem import FLIGHT_CAPACITY, build_bundle


def flight_of(log: AuditLog, **kwargs):
    """The flight section of a bundle built from ``log``."""
    return build_bundle(reason="r", audit=log, **kwargs)["flight"]


def filled_log(n: int) -> AuditLog:
    log = AuditLog()
    log.enable()
    for i in range(n):
        log.append(f"e{i}", ts_ns=float(i))
    return log


class TestRingSemantics:
    def test_capacity_bounds_the_ring(self):
        n = FLIGHT_CAPACITY + 8
        flight = flight_of(filled_log(n), tail=n)
        assert flight["n_entries"] == FLIGHT_CAPACITY
        assert [e["name"] for e in flight["entries"]] == \
            [f"e{i}" for i in range(8, n)]

    def test_tail_returns_json_ready_dicts(self):
        log = AuditLog()
        log.enable()
        log.append("tlb.install", tenant=1, ts_ns=3.0, bank="c0")
        (entry,) = flight_of(log)["entries"]
        assert entry == {"kind": "audit", "name": "tlb.install",
                         "ts_ns": 3.0, "tenant": 1, "track": "audit",
                         "args": {"bank": "c0"}}
        assert json.loads(json.dumps(entry)) == entry

    def test_tail_n_takes_the_most_recent(self):
        flight = flight_of(filled_log(10), tail=3)
        assert flight["n_entries"] == 10
        assert [e["name"] for e in flight["entries"]] == ["e7", "e8", "e9"]

    def test_default_capacity(self):
        flight = flight_of(AuditLog())
        assert flight["capacity"] == FLIGHT_CAPACITY == 512
        assert flight["window_ns"] is None

    def test_internal_tick_advances_without_a_clock(self):
        log = AuditLog()
        log.enable()
        log.append("a")
        log.append("b")
        ts = [e["ts_ns"] for e in flight_of(log)["entries"]]
        assert ts == sorted(ts) and len(set(ts)) == 2


class TestDisabledNoOp:
    def test_disabled_record_is_a_no_op(self):
        # A primitive run with the cell's log off leaves nothing for
        # the section to show.
        TLB(capacity=4, name="core0").clear()
        flight = build_bundle(reason="r")["flight"]
        assert flight["n_entries"] == 0 and flight["entries"] == []


class TestEnableDisableLifecycle:
    def test_reset_restores_import_time_state(self):
        auditlog.enable_audit_log(clock=lambda: 9.0)
        auditlog.get_audit_log().append("x")
        isolate()
        log = auditlog.get_audit_log()
        assert log.enabled is False
        assert flight_of(log) == {"capacity": FLIGHT_CAPACITY,
                                  "window_ns": None, "n_entries": 0,
                                  "entries": []}
        # Internal ticks resume from a cleared state.
        log.enable()
        log.append("y")
        assert flight_of(log)["entries"][0]["ts_ns"] == 1.0
