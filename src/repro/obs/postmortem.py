"""Deterministic post-mortem forensics bundles.

When an :class:`~repro.core.errors.IsolationViolation`,
:class:`~repro.core.errors.WatchdogTimeout`, or
:class:`~repro.core.errors.RecoveryExhausted` fires — or a chaos run
injects a fault into a cell — the harness assembles one JSON bundle
holding everything an investigator needs to reconstruct the incident:

* ``reason`` — the triggering exception (or injected-fault note);
* ``scenario`` — the active :class:`~repro.scenario.spec.ScenarioSpec`
  (``to_dict()``) plus its seed, so the incident replays exactly;
* ``audit`` — the audit-log tail with each record's embedded ``prev``
  pointer plus the chain head, so the excerpt *self-verifies*: any
  tampered byte in the serialized bundle breaks a link and
  ``python -m repro postmortem BUNDLE --verify`` exits nonzero;
* ``flight`` — the same tail rendered as flight entries
  (``{"kind": "audit", "name": <record kind>, "ts_ns", "tenant",
  "track": "audit", "args": <record detail>}``), with an entry count
  capped at :data:`FLIGHT_CAPACITY`.  It is a pure function of the
  audit section, so ``--verify`` checks it against the chain;
* ``metrics`` — the full registry snapshot at failure time;
* ``interference`` — the per-tenant blame matrix flattened to sorted
  JSON rows plus the headline cross-tenant wait.

Bundles are pure functions of the seed: no wall-clock reads, sorted
keys, sorted rows — two same-seed chaos runs produce byte-identical
files and CI ``cmp``s them (lint rule SNIC002 additionally forbids wall
clocks, here as in every module).  The audit log is the one
sink bundles read security records from; the flight section keeps its
fixed ``capacity`` and null ``window_ns`` so existing bundles stay
byte-identical.

CLI::

    python -m repro postmortem BUNDLE            # pretty-print
    python -m repro postmortem BUNDLE --verify   # exit 1 on tampering
    python -m repro postmortem BUNDLE --diff B2  # field-level diff
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, TextIO

from repro.obs import auditlog as auditlog_mod
from repro.obs import metrics as metrics_mod
from repro.obs.bench import positive_int
from repro.obs.interference import get_accountant

SCHEMA = "repro.postmortem"
SCHEMA_VERSION = 1

#: Default number of audit records (and flight entries) kept in a bundle.
DEFAULT_TAIL = 64

#: The flight section's ``capacity``: its ``n_entries`` counts at most
#: this many of the chain's records.
FLIGHT_CAPACITY = 512


def _reason_dict(reason: Any) -> Dict[str, Any]:
    """Normalize the trigger into ``{"kind", "message"}``."""
    if isinstance(reason, dict):
        return {"kind": str(reason.get("kind", "unknown")),
                "message": str(reason.get("message", ""))}
    if isinstance(reason, BaseException):
        return {"kind": type(reason).__name__, "message": str(reason)}
    return {"kind": "note", "message": str(reason)}


def _interference_rows() -> List[Dict[str, Any]]:
    """The cell's blamed pairs as sorted, JSON-able rows."""
    return [{"resource": resource, "tenant": victim, "culprit": culprit,
             "wait_ns": wait, "events": events}
            for resource, victim, culprit, (wait, events)
            in get_accountant().cells()]


def _flight_entry(record: Dict[str, Any]) -> Dict[str, Any]:
    """One audit record as the flight section shows it."""
    return {"kind": "audit", "name": record.get("kind"),
            "ts_ns": record.get("ts_ns"), "tenant": record.get("tenant"),
            "track": "audit", "args": record.get("detail")}


def _flight_section(n_records: int,
                    records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The flight section of a bundle whose chain holds ``n_records``
    records and whose audit tail is ``records``."""
    return {
        "capacity": FLIGHT_CAPACITY,
        "window_ns": None,
        "n_entries": min(n_records, FLIGHT_CAPACITY),
        "entries": [_flight_entry(record)
                    for record in records[-FLIGHT_CAPACITY:]],
    }


def build_bundle(*, reason: Any,
                 spec: Any = None,
                 audit: Optional["auditlog_mod.AuditLog"] = None,
                 tail: int = DEFAULT_TAIL) -> Dict[str, Any]:
    """Assemble a deterministic forensics bundle from live state: the
    cell's audit log unless another is given, and the cell's registry
    and interference accountant."""
    if audit is None:
        audit = auditlog_mod.get_audit_log()
    audit_tail = audit.tail(tail)
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "reason": _reason_dict(reason),
        "scenario": spec.to_dict() if spec is not None else None,
        "seed": getattr(spec, "seed", None),
        # Its own copy of the tail: editing one section never edits
        # the other.
        "flight": _flight_section(len(audit), audit.tail(tail)),
        "audit": {
            "genesis": auditlog_mod.GENESIS,
            "n_records": len(audit),
            "chain_head": audit.head(),
            "records": audit_tail,
        },
        "metrics": metrics_mod.get_registry().snapshot(),
        "interference": {
            "cross_tenant_wait_ns": get_accountant().cross_tenant_wait(),
            "rows": _interference_rows(),
        },
    }


def write_bundle(bundle: Dict[str, Any], path: str) -> str:
    """Serialize a bundle deterministically (sorted keys, trailing
    newline) so same-seed bundles are byte-identical.  Missing parent
    directories are created."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bundle, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bundle(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        bundle = json.load(handle)
    if not isinstance(bundle, dict):
        raise ValueError("not a JSON object")
    return bundle


def bundle_path(directory: str, name: str) -> str:
    """The canonical on-disk name for a bundle (gitignored pattern)."""
    return f"{directory}/POSTMORTEM_{name}.json"


def verify_bundle(bundle: Dict[str, Any]) -> List[str]:
    """Check a bundle's integrity; return a list of problems (empty
    means the bundle verifies)."""
    problems: List[str] = []
    if bundle.get("schema") != SCHEMA:
        problems.append(
            f"unexpected schema {bundle.get('schema')!r} "
            f"(want {SCHEMA!r})")
        return problems
    audit = bundle.get("audit")
    if not isinstance(audit, dict):
        problems.append("missing audit section")
        return problems
    records = audit.get("records", [])
    # The tail's first record may sit mid-chain, so trust its embedded
    # prev pointer (anchor=None) — every subsequent link must hold.
    bad = auditlog_mod.verify_records(records, anchor=None)
    if bad is not None:
        problems.append(
            f"audit chain broken at tail index {bad} "
            f"(seq {records[bad].get('seq', '?')})"
            if isinstance(records[bad], dict)
            else f"audit chain broken at tail index {bad}")
    if records:
        last = records[-1]
        head = audit.get("chain_head")
        if isinstance(last, dict) and last.get("hash") != head:
            problems.append(
                "chain head does not match the last record's hash")
    elif audit.get("chain_head") != audit.get("genesis"):
        problems.append(
            "empty audit tail but chain head differs from genesis")
    problems.extend(_flight_problems(bundle.get("flight"), audit, records))
    return problems


def _flight_problems(flight: Any, audit: Dict[str, Any],
                     records: List[Any]) -> List[str]:
    """The flight section must be the rendering of the audit section:
    the chain covers the records, and through them the entries."""
    if not isinstance(flight, dict):
        return ["missing flight section"]
    n_records = audit.get("n_records")
    if not isinstance(n_records, int) or not all(
            isinstance(record, dict) for record in records):
        return ["flight section cannot be checked: malformed audit "
                "section"]
    expected = _flight_section(n_records, records)
    return [f"flight.{key} does not match the audit section"
            for key in sorted(set(flight) | set(expected))
            if flight.get(key) != expected.get(key)]


def diff_bundles(a: Dict[str, Any], b: Dict[str, Any],
                 prefix: str = "") -> List[str]:
    """Recursive field-level diff; returns ``path: a != b`` lines."""
    diffs: List[str] = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a:
                diffs.append(f"{path}: only in second bundle")
            elif key not in b:
                diffs.append(f"{path}: only in first bundle")
            else:
                diffs.extend(diff_bundles(a[key], b[key], path))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{prefix}: length {len(a)} != {len(b)}")
        for index, (va, vb) in enumerate(zip(a, b)):
            diffs.extend(diff_bundles(va, vb, f"{prefix}[{index}]"))
    elif a != b:
        diffs.append(f"{prefix}: {a!r} != {b!r}")
    return diffs


def format_bundle(bundle: Dict[str, Any], *,
                  tail: int = 10) -> str:
    """A human-oriented text rendering of a bundle."""
    lines: List[str] = []
    reason = bundle.get("reason", {})
    lines.append(f"post-mortem bundle (schema {bundle.get('schema')} "
                 f"v{bundle.get('schema_version')})")
    lines.append(f"reason: {reason.get('kind')}: "
                 f"{reason.get('message')}")
    scenario = bundle.get("scenario")
    if scenario:
        lines.append(f"scenario: {scenario.get('name', '?')} "
                     f"(seed {bundle.get('seed')})")
    else:
        lines.append("scenario: (none attached)")
    audit = bundle.get("audit", {})
    records = audit.get("records", [])
    lines.append(f"audit: {audit.get('n_records', 0)} records, "
                 f"head {str(audit.get('chain_head', ''))[:16]}…, "
                 f"tail of {len(records)}:")
    for record in records[-tail:]:
        detail = json.dumps(record.get("detail", {}), sort_keys=True)
        lines.append(
            f"  [{record.get('seq'):>4}] ts={record.get('ts_ns')} "
            f"{record.get('kind')} tenant={record.get('tenant')} "
            f"{detail}")
    flight = bundle.get("flight", {})
    entries = flight.get("entries", [])
    lines.append(f"flight: {flight.get('n_entries', 0)} entries "
                 f"(capacity {flight.get('capacity')}, window "
                 f"{flight.get('window_ns')}), tail of {len(entries)}:")
    for entry in entries[-tail:]:
        lines.append(
            f"  ts={entry.get('ts_ns')} {entry.get('kind')} "
            f"{entry.get('name')} tenant={entry.get('tenant')}")
    interference = bundle.get("interference", {})
    lines.append(f"interference: cross_tenant_wait_ns="
                 f"{interference.get('cross_tenant_wait_ns')}")
    for row in interference.get("rows", [])[:tail]:
        lines.append(
            f"  {row['resource']}: victim={row['tenant']} "
            f"culprit={row['culprit']} wait_ns={row['wait_ns']} "
            f"events={row['events']}")
    lines.append(f"metrics: {len(bundle.get('metrics', []))} samples")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None,
         stream: Optional[TextIO] = None) -> int:
    """``python -m repro postmortem`` entry point."""
    stream = stream or sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro postmortem",
        description="Inspect, verify, or diff post-mortem forensics "
                    "bundles written by `repro chaos`/`repro matrix`.")
    parser.add_argument("bundle", help="path to a POSTMORTEM_*.json")
    parser.add_argument("--verify", action="store_true",
                        help="verify the audit hash chain and bundle "
                             "integrity; exit 1 on any problem")
    parser.add_argument("--diff", metavar="OTHER",
                        help="diff against a second bundle; exit 1 if "
                             "they differ")
    parser.add_argument("--tail", type=positive_int, default=10,
                        help="how many tail rows to pretty-print "
                             "(default 10)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    args = parser.parse_args(argv)

    def read(path: str) -> Dict[str, Any]:
        try:
            return load_bundle(path)
        except (OSError, ValueError) as exc:  # missing, unreadable, not JSON
            parser.error(f"cannot read bundle {path}: {exc}")

    bundle = read(args.bundle)
    other = read(args.diff) if args.diff else None

    if args.verify:
        problems = verify_bundle(bundle)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=stream)
            return 1
        audit = bundle["audit"]
        print(f"OK: audit chain intact "
              f"({len(audit.get('records', []))} records in tail, "
              f"head {str(audit.get('chain_head', ''))[:16]}…); "
              f"flight section matches it "
              f"({len(bundle['flight']['entries'])} entries)",
              file=stream)
        return 0

    if other is not None:
        diffs = diff_bundles(bundle, other)
        if diffs:
            for line in diffs:
                print(line, file=stream)
            print(f"{len(diffs)} differences", file=stream)
            return 1
        print("bundles are identical", file=stream)
        return 0

    if args.format == "json":
        json.dump(bundle, stream, indent=2, sort_keys=True)
        stream.write("\n")
    else:
        print(format_bundle(bundle, tail=args.tail), file=stream)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
