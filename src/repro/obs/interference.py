"""Per-tenant contention attribution — *who made whom wait, and where*.

The paper's central claim is noninterference: with S-NIC partitioning
on, one tenant's activity must be invisible in another tenant's timing
(§4.5, §6).  The repo can *assert* that (IsoSan, the differential
harness in :mod:`repro.core.noninterference`) but until now could not
*measure or explain* it: when a victim slowed down, nothing said which
shared resource and which co-tenant caused the wait.

This module is the accounting layer every shared hardware resource
blames into.  Each time a request from ``victim`` is delayed because of
work attributable to ``culprit`` on ``resource``, the resource calls::

    get_accountant().blame(resource, victim=v, culprit=c, wait_ns=w)

which lands in two tenant-tagged counter families in the metrics
registry:

* ``interference_wait_ns_total{resource, tenant, culprit}`` —
  nanoseconds the victim (``tenant``) spent waiting behind the
  culprit's traffic;
* ``interference_events_total{resource, tenant, culprit}`` — how many
  of the victim's requests were delayed by that culprit.

``tenant == culprit`` entries are *self-interference* (a tenant queued
behind its own traffic, or temporal-partitioning epoch/dead-time
overhead — overhead the tenant would pay even running alone).  Entries
with ``tenant != culprit`` are **cross-tenant interference**: under the
commodity configs (FCFS bus, shared cache, shared DMA engine) they are
nonzero by construction, and under full S-NIC partitioning they must be
*exactly zero* — ``python -m repro audit`` turns that into a CI gate.

Sources of blame by resource (see the ``hw`` modules):

* ``bus``  — FCFS queueing behind other clients' in-flight transfers;
  under temporal partitioning, epoch-gap/dead-time waits (self only).
* ``cache`` — a shared-mode fill evicting another owner's line is
  remembered; when the victim later misses on that line, the refill
  latency is blamed on the evictor.
* ``dram`` — FCFS channel queueing (shared) vs per-tenant channel
  cursors (partitioned, self only).
* ``dma``  — a shared commodity DMA engine serializing all banks'
  transfers vs S-NIC's per-bank engines.
* ``cores`` — memory-stall cycles explicitly attributed by the caller
  (e.g. stalls caused by cross-tenant cache conflicts).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import Counter, MetricsRegistry, get_registry

#: Canonical resource names, in scorecard display order.
RESOURCE_BUS = "bus"
RESOURCE_CACHE = "cache"
RESOURCE_DRAM = "dram"
RESOURCE_DMA = "dma"
RESOURCE_CORES = "cores"
RESOURCES: Tuple[str, ...] = (
    RESOURCE_BUS, RESOURCE_CACHE, RESOURCE_DRAM, RESOURCE_DMA,
    RESOURCE_CORES,
)

WAIT_METRIC = "interference_wait_ns_total"
EVENTS_METRIC = "interference_events_total"


class InterferenceAccountant:
    """The blame sink: resolves ``(resource, victim, culprit)`` to the
    registry's counter pair and adds to it.

    The pair is memoised per ``(resource, victim, culprit)``, so a
    repeat blame costs one dict lookup and two float adds.  A miss
    still mints through :meth:`MetricsRegistry.counter`, in the same
    order as an uncached accountant would.  The memo is keyed on
    ``(registry, registry.generation)``: :func:`repro.obs.metrics.reset`
    bumps the generation and the next blame starts a fresh memo, so
    components may hold the accountant across resets, never the
    counters.  Memo keys are the raw label values; tenant ids are ints
    (or ``None``), which never collide under ``==`` while stringifying
    differently.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry
        self._memo: Dict[Tuple[str, object, object],
                         Tuple[Counter, Counter]] = {}
        self._memo_owner: Tuple[Optional[MetricsRegistry], int] = (None, -1)

    def _resolve(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def blame(
        self,
        resource: str,
        victim: Optional[int],
        culprit: Optional[int],
        wait_ns: float,
        events: int = 1,
    ) -> None:
        """Attribute ``wait_ns`` of the victim's delay to ``culprit``."""
        if wait_ns <= 0.0 and events <= 0:
            return
        registry = self._resolve()
        owner = self._memo_owner
        if owner[0] is not registry or owner[1] != registry.generation:
            self._memo = {}
            self._memo_owner = (registry, registry.generation)
        key = (resource, victim, culprit)
        pair = self._memo.get(key)
        if pair is None:
            pair = self._memo[key] = (
                registry.counter(WAIT_METRIC, resource=resource,
                                 tenant=victim, culprit=culprit),
                registry.counter(EVENTS_METRIC, resource=resource,
                                 tenant=victim, culprit=culprit))
        pair[0].value += wait_ns
        pair[1].value += events

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def matrix(self, resource: Optional[str] = None) -> "BlameMatrix":
        return blame_matrix(self._resolve(), resource=resource)


#: One (victim, culprit) cell: attributed wait and blamed-event count.
Cell = Dict[str, float]
#: resource -> (victim, culprit) -> cell.
BlameMatrix = Dict[str, Dict[Tuple[str, str], Cell]]


def _tenant_key(value: object) -> str:
    """Labels come back from the registry stringified; keep them so."""
    return str(value)


def blame_matrix(registry: Optional[MetricsRegistry] = None,
                 resource: Optional[str] = None) -> BlameMatrix:
    """The interference matrices currently in the registry.

    Returns ``{resource: {(victim, culprit): {"wait_ns": w, "events": n}}}``
    with tenant ids as the registry's string labels.  Deterministically
    ordered (resources and cells sorted).  Reads the two counter
    families straight off the registry, without a full snapshot: each
    cell field is one instrument's value, so the scan order does not
    matter.
    """
    registry = registry if registry is not None else get_registry()
    matrix: BlameMatrix = {}
    for instrument in registry.instruments():
        name = instrument.name  # type: ignore[attr-defined]
        if name != WAIT_METRIC and name != EVENTS_METRIC:
            continue
        labels = dict(instrument.labels)  # type: ignore[attr-defined]
        res = labels.get("resource", "?")
        if resource is not None and res != resource:
            continue
        key = (_tenant_key(labels.get("tenant")),
               _tenant_key(labels.get("culprit")))
        cell = matrix.setdefault(res, {}).setdefault(
            key, {"wait_ns": 0.0, "events": 0.0})
        field = "wait_ns" if name == WAIT_METRIC else "events"
        cell[field] += float(instrument.value)  # type: ignore[attr-defined]
    return {
        res: dict(sorted(cells.items()))
        for res, cells in sorted(matrix.items())
    }


def cross_tenant_wait_ns(matrix: BlameMatrix,
                         resource: Optional[str] = None) -> float:
    """Total wait attributed across tenant boundaries (victim != culprit)."""
    total = 0.0
    for res, cells in matrix.items():
        if resource is not None and res != resource:
            continue
        for (victim, culprit), cell in cells.items():
            if victim != culprit:
                total += cell["wait_ns"]
    return total


def cross_tenant_events(matrix: BlameMatrix,
                        resource: Optional[str] = None) -> float:
    """Total blamed events across tenant boundaries."""
    total = 0.0
    for res, cells in matrix.items():
        if resource is not None and res != resource:
            continue
        for (victim, culprit), cell in cells.items():
            if victim != culprit:
                total += cell["events"]
    return total


def format_matrix(matrix: BlameMatrix,
                  title: str = "interference matrix") -> str:
    """Human-readable per-resource blame tables (victim rows, culprit
    columns, cells ``wait_ns/events``)."""
    lines: List[str] = [f"=== {title} ==="]
    if not matrix:
        lines.append("(no interference recorded)")
        return "\n".join(lines)
    for res, cells in matrix.items():
        victims = sorted({v for v, _ in cells})
        culprits = sorted({c for _, c in cells})
        lines.append(f"[{res}]")
        header = ["victim \\ culprit"] + culprits
        rows: List[List[str]] = []
        for victim in victims:
            row = [victim]
            for culprit in culprits:
                cell = cells.get((victim, culprit))
                if cell is None:
                    row.append("-")
                else:
                    row.append(f"{cell['wait_ns']:.0f}ns/"
                               f"{cell['events']:.0f}ev")
            rows.append(row)
        widths = [max(len(header[i]), *(len(r[i]) for r in rows))
                  for i in range(len(header))]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


class FCFSWaitAttributor:
    """Shared bookkeeping for FCFS-style queues: who occupied the
    resource during the interval a new request had to wait through.

    The serving component appends one *busy segment* ``[start, end)``
    per granted request; when a later request issued at ``now`` cannot
    start before ``start``, :meth:`attribute` splits the wait interval
    ``[now, start)`` across the owners of the segments that cover it
    and blames each share on its owner.

    Segments are strictly sequential (each new one starts at the
    previous end or later), so only the head segment can straddle
    ``now`` — per-request cost is O(live clients), not O(queue length).
    """

    __slots__ = ("resource", "_accountant", "_segments", "_totals")

    def __init__(self, resource: str,
                 accountant: Optional[InterferenceAccountant] = None) -> None:
        self.resource = resource
        self._accountant = accountant or get_accountant()
        #: Sequential (start, end, client) busy segments not yet consumed.
        self._segments: List[Tuple[float, float, int]] = []
        #: client -> total live-segment duration (the O(1) running sum).
        self._totals: Dict[int, float] = {}

    def occupy(self, client: int, start: float, end: float) -> None:
        """Record that ``client`` holds the resource over ``[start, end)``."""
        if end <= start:
            return
        self._segments.append((start, end, client))
        self._totals[client] = self._totals.get(client, 0.0) + (end - start)

    def _prune(self, now_ns: float) -> None:
        consumed = 0
        for start, end, client in self._segments:
            if end > now_ns:
                break
            consumed += 1
            remaining = self._totals.get(client, 0.0) - (end - start)
            if remaining <= 1e-12:
                self._totals.pop(client, None)
            else:
                self._totals[client] = remaining
        if consumed:
            del self._segments[:consumed]

    def attribute(self, victim: int, now_ns: float, start_ns: float) -> None:
        """Blame the wait interval ``[now_ns, start_ns)`` on the owners
        of the busy segments covering it."""
        if start_ns <= now_ns:
            self._prune(now_ns)
            return
        self._prune(now_ns)
        if not self._segments:
            return
        shares = dict(self._totals)
        head_start, _head_end, head_client = self._segments[0]
        if head_start < now_ns:
            # The in-flight head segment is partially consumed already.
            shares[head_client] = shares.get(head_client, 0.0) \
                - (now_ns - head_start)
        for culprit in sorted(shares):
            wait = min(shares[culprit], start_ns - now_ns)
            if wait > 1e-12:
                self._accountant.blame(self.resource, victim=victim,
                                       culprit=culprit, wait_ns=wait)

    def reset(self) -> None:
        self._segments.clear()
        self._totals.clear()


#: The process-wide accountant every hardware model blames into.
_ACCOUNTANT = InterferenceAccountant()


def get_accountant() -> InterferenceAccountant:
    return _ACCOUNTANT
