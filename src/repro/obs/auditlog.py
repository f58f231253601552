"""Append-only, sha256 hash-chained audit log of security-relevant
events.

S-NIC's lifecycle guarantees (§4.6: attested launch, scrubbed teardown,
fresh-identity relaunch) are *enforced* by the simulation and IsoSan —
this module makes them *witnessed*.  Every security-relevant action
(attestation verdict, page scrub, TLB install/clear, denylist block,
cross-tenant denial, fault injection, watchdog/recovery action) appends
one record whose hash covers both its own canonical payload and the
previous record's hash, TNIC-style: flipping any byte anywhere in the
serialized log — payload, back-pointer, or digest — breaks the chain at
that index and :func:`verify_records` reports it.

Record shape (all JSON-able)::

    {"seq": 3, "ts_ns": 1200.0, "kind": "memory.scrub", "tenant": 2,
     "detail": {"pages": 4, "scrubbed": true},
     "prev": "<hex sha256 of record 2>",
     "hash": "<hex sha256 of prev || canonical(payload)>"}

where ``payload`` is the record minus ``prev``/``hash``, canonicalized
as compact sorted-key JSON, and record 0 chains from a fixed
:data:`GENESIS` anchor.  Hashing reuses :mod:`repro.crypto.sha256` (the
same primitive the attestation model uses), whose digests come from
``hashlib`` and are checked against its from-scratch reference.

Emission sites go through the :class:`AuditEmitter` facade so each
instrumented module pays the usual zero-cost-when-off toll::

    _AUDIT = get_emitter()
    ...
    if _AUDIT.active:
        _AUDIT.emit("tlb.install", tenant=owner, vbase=..., size=...)

``active`` is a plain attribute (no property, no call) refreshed
whenever the audit log or flight recorder is enabled/disabled, so the
disabled path is one attribute load and a falsy branch — the same
discipline the tracer's <5% overhead test pins down.

Timestamps come from a bound simulation clock or a deterministic
internal tick — never the wall clock — so same-seed runs produce
byte-identical chains (CI ``cmp``s chaos post-mortem bundles).
"""

from __future__ import annotations

import copy
import json
from typing import Any, Callable, Dict, List, Optional

from repro.crypto.sha256 import sha256_hex
from repro.obs import flight as flight_mod

#: Chain anchor for the first record: a fixed, content-free digest so an
#: empty log still has a well-defined head.
GENESIS = sha256_hex(b"snic-audit-genesis")


def _canonical(payload: Dict[str, Any]) -> bytes:
    """Canonical byte serialization: compact, sorted-key JSON."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _jsonable(value: Any) -> Any:
    """Coerce a detail value to something JSON round-trips exactly."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def record_hash(prev: str, payload: Dict[str, Any]) -> str:
    """The chained digest of one record: sha256(prev || canonical)."""
    return sha256_hex(prev.encode("ascii") + _canonical(payload))


def verify_records(records: List[Dict[str, Any]],
                   anchor: Optional[str] = GENESIS) -> Optional[int]:
    """Verify a hash chain; return the first offending index, or
    ``None`` if the chain is intact.

    With ``anchor`` set (the default :data:`GENESIS` for full logs) the
    first record's ``prev`` must equal it.  With ``anchor=None`` the
    first record's ``prev`` is trusted — the mode for verifying a tail
    excerpt inside a post-mortem bundle, where the chain's prefix was
    truncated away but every surviving link must still hold.
    """
    prev = anchor
    expected_seq: Optional[int] = None
    for index, record in enumerate(records):
        try:
            payload = {key: record[key]
                       for key in ("seq", "ts_ns", "kind", "tenant",
                                   "detail")}
            claimed_prev = record["prev"]
            claimed_hash = record["hash"]
        except (KeyError, TypeError):
            return index
        if prev is not None and claimed_prev != prev:
            return index
        if expected_seq is not None and payload["seq"] != expected_seq:
            return index
        if record_hash(claimed_prev, payload) != claimed_hash:
            return index
        prev = claimed_hash
        seq = payload["seq"]
        expected_seq = seq + 1 if isinstance(seq, int) else None
    return None


class AuditLog:
    """An append-only, hash-chained log of security-relevant records."""

    def __init__(self,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.enabled = False
        self.records: List[Dict[str, Any]] = []
        self._clock = clock
        self._tick = 0
        self._head = GENESIS

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.enabled = True
        if clock is not None:
            self._clock = clock

    def disable(self) -> None:
        self.enabled = False

    def use_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """(Re)bind the time source; ``None`` reverts to internal ticks."""
        self._clock = clock

    def clear(self) -> None:
        """Drop all records and restart the chain from genesis."""
        self.records = []
        self._tick = 0
        self._head = GENESIS

    def now(self) -> float:
        if self._clock is not None:
            return float(self._clock())
        self._tick += 1
        return float(self._tick)

    # ------------------------------------------------------------------
    # Appending and verification
    # ------------------------------------------------------------------

    def append(self, kind: str, *, tenant: Optional[int] = None,
               ts_ns: Optional[float] = None,
               **detail: Any) -> Dict[str, Any]:
        """Append one record, extending the hash chain; returns it."""
        payload = {
            "seq": len(self.records),
            "ts_ns": self.now() if ts_ns is None else float(ts_ns),
            "kind": kind,
            "tenant": tenant,
            "detail": {key: _jsonable(value)
                       for key, value in sorted(detail.items())},
        }
        record = dict(payload)
        record["prev"] = self._head
        record["hash"] = record_hash(self._head, payload)
        self.records.append(record)
        self._head = record["hash"]
        return record

    def head(self) -> str:
        """The hash of the last record (or :data:`GENESIS` when empty)."""
        return self._head

    def verify_chain(self) -> Optional[int]:
        """Walk the whole chain from genesis; return the first tampered
        index, or ``None`` when every link holds."""
        return verify_records(self.records, anchor=GENESIS)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent ``n`` records (default: all), as deep copies
        whose embedded ``prev`` pointers let the excerpt self-verify
        (deep so callers can't corrupt the live chain through aliased
        ``detail`` dicts)."""
        records = self.records if n is None else self.records[-n:]
        return copy.deepcopy(records)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return self.tail(None)


class AuditEmitter:
    """The shared guard object instrumented modules route through.

    Holds the process-wide audit log and flight recorder; ``active`` is
    kept in sync by the module-level enable/disable helpers so call
    sites pay one attribute load when everything is off.
    """

    __slots__ = ("active", "_log", "_flight")

    def __init__(self, log: AuditLog,
                 flight: "flight_mod.FlightRecorder") -> None:
        self._log = log
        self._flight = flight
        self.active = False

    def refresh(self) -> None:
        self.active = self._log.enabled or self._flight.enabled

    def emit(self, kind: str, *, tenant: Optional[int] = None,
             ts_ns: Optional[float] = None, **detail: Any) -> None:
        """Route one security event to every armed sink."""
        log = self._log
        if log.enabled:
            record = log.append(kind, tenant=tenant, ts_ns=ts_ns,
                                **detail)
            if ts_ns is None:
                # Reuse the log's timestamp so both sinks agree.
                ts_ns = record["ts_ns"]
        flight = self._flight
        if flight.enabled:
            flight.record("audit", kind, ts_ns=ts_ns, tenant=tenant,
                          track="audit", args=detail)


#: Process-wide singletons: one log, one emitter facade over it and the
#: default flight recorder.  The emitter holds object *references*, so
#: state resets clear these instances in place rather than rebinding.
_AUDIT_LOG = AuditLog()
_EMITTER = AuditEmitter(_AUDIT_LOG, flight_mod.get_flight_recorder())


def get_audit_log() -> AuditLog:
    return _AUDIT_LOG


def get_emitter() -> AuditEmitter:
    return _EMITTER


def enable_audit_log(
        clock: Optional[Callable[[], float]] = None) -> AuditLog:
    _AUDIT_LOG.enable(clock)
    _EMITTER.refresh()
    return _AUDIT_LOG


def disable_audit_log() -> None:
    _AUDIT_LOG.disable()
    _EMITTER.refresh()


def refresh_emitter() -> None:
    """Recompute the emitter's ``active`` flag — call after toggling the
    flight recorder directly."""
    _EMITTER.refresh()


def reset() -> None:
    """Return the audit log to its import-time state (bench/matrix
    ``_isolate`` and the test fixtures call this between cells)."""
    _AUDIT_LOG.disable()
    _AUDIT_LOG.use_clock(None)
    _AUDIT_LOG.clear()
    _EMITTER.refresh()
