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

FCFS queues split one wait interval across several culprits;
:class:`FCFSWaitAttributor` hands all the shares of one interval to
:meth:`InterferenceAccountant.blame_each`, the batched form of
``blame`` (one event per culprit, the same sums in the same order).

The accountant is the one store of blame: one plain row per
``(resource, victim)``, mapping each culprit to ``[wait_ns, events]``,
next to a running cross-tenant wait per ``(resource, victim)``, which
the SLO windows (:mod:`repro.obs.windows`) and the scorecard read.
:func:`blame_matrix` and :meth:`InterferenceAccountant.cells` read the
rows in label order.  Registry-wide readers (snapshots, the OpenMetrics
export, the instrument count in records) see the rows through one
collector on the accountant's registry, as two tenant-tagged counter
families on one fixed label schema:

* ``interference_wait_ns_total{resource, tenant, culprit}`` —
  nanoseconds the victim (``tenant``) spent waiting behind the
  culprit's traffic;
* ``interference_events_total{resource, tenant, culprit}`` — how many
  of the victim's requests were delayed by that culprit.

Each sample holds what a ``registry.counter(...)`` instrument with
those labels would hold, but no per-pair object exists.

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

from bisect import bisect_left, insort
from functools import partial
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry

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

#: One (resource, victim) row: culprit -> ``[wait_ns, events]``.
Row = Dict[Optional[int], List[float]]
#: One blamed pair in label order: resource, victim label, culprit
#: label and its ``[wait_ns, events]``.
PairCell = Tuple[str, str, str, List[float]]


def _pair_samples(rows: Dict[Tuple[str, Optional[int]], Row]) \
        -> Iterator[Dict[str, object]]:
    """The registry's view of the rows: one wait and one events counter
    sample per blamed pair, shaped as :meth:`Counter.sample` shapes
    them (labels in sorted order)."""
    for (resource, victim), row in rows.items():
        tenant = str(victim)
        for culprit, (wait, events) in row.items():
            label = str(culprit)
            yield {"name": WAIT_METRIC, "type": "counter",
                   "labels": {"culprit": label, "resource": resource,
                              "tenant": tenant},
                   "value": wait}
            yield {"name": EVENTS_METRIC, "type": "counter",
                   "labels": {"culprit": label, "resource": resource,
                              "tenant": tenant},
                   "value": events}


class InterferenceAccountant:
    """The blame sink and the one store of blame.

    ``rows`` holds one dict per ``(resource, victim)``, mapping each
    culprit to ``[wait_ns, events]``: a repeat blame costs two dict
    lookups and two float adds and builds nothing.  Both sums start at
    ``0.0``, so they hold the bits a registry counter would.  The
    accountant serves its rows to one registry for life (the current
    cell's when none is given) through a collector; each cell gets a
    new accountant with its registry (:class:`repro.obs.cell.CellState`).
    Row keys are the raw tenant ids (ints or ``None``), whose labels
    never collide.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else get_registry()
        #: ``(resource, victim) -> {culprit: [wait_ns, events]}``.
        self.rows: Dict[Tuple[str, Optional[int]], Row] = {}
        #: ``(resource, victim) -> cross-tenant wait so far``: the sum of
        #: every share blamed on a culprit other than the victim.
        self.cross_wait: Dict[Tuple[str, Optional[int]], float] = {}
        # The collector holds the rows, not the accountant, so the
        # registry and the accountant form no cycle.
        self._registry.register_collector(partial(_pair_samples, self.rows))

    @property
    def registry(self) -> MetricsRegistry:
        """The registry that serves the rows as counter families."""
        return self._registry

    def _row(self, resource: str, victim: Optional[int]) -> Row:
        """The victim's row for ``resource``."""
        row = self.rows.get((resource, victim))
        if row is None:
            row = self.rows[(resource, victim)] = {}
        return row

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
        row = self._row(resource, victim)
        cell = row.get(culprit)
        if cell is None:
            cell = row[culprit] = [0.0, 0.0]
        cell[0] += wait_ns
        cell[1] += events
        if culprit != victim:
            key = (resource, victim)
            self.cross_wait[key] = self.cross_wait.get(key, 0.0) + wait_ns

    def blame_each(self, resource: str, victim: Optional[int],
                   waits: Sequence[Tuple[Optional[int], float]]) -> None:
        """One blamed event per ``(culprit, wait_ns)``, in order.

        Equivalent to calling :meth:`blame` once per entry with the
        default ``events=1`` -- the same sums, added in the same order,
        and no row for an empty ``waits`` -- but looks the row up only
        once.
        """
        if not waits:
            return
        row = self._row(resource, victim)
        cross = 0.0
        for culprit, wait_ns in waits:
            cell = row.get(culprit)
            if cell is None:
                cell = row[culprit] = [0.0, 0.0]
            cell[0] += wait_ns
            cell[1] += 1
            if culprit != victim:
                cross += wait_ns
        if cross:
            key = (resource, victim)
            self.cross_wait[key] = self.cross_wait.get(key, 0.0) + cross

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def cells(self, resource: Optional[str] = None) -> Iterator[PairCell]:
        """Every blamed pair (on ``resource`` only, when given) in
        ``(resource, victim label, culprit label)`` string order, with
        its live ``[wait_ns, events]`` entry."""
        victims = sorted(
            ((res, str(victim), row) for (res, victim), row
             in self.rows.items() if resource is None or res == resource),
            key=itemgetter(0, 1))
        for res, victim, row in victims:
            for culprit, cell in sorted(
                    ((str(culprit), cell) for culprit, cell in row.items()),
                    key=itemgetter(0)):
                yield res, victim, culprit, cell

    def cross_tenant_wait(self) -> float:
        """Total cross-tenant wait, added in :meth:`cells` order: to the
        bit, ``cross_tenant_wait_ns(blame_matrix(self))``."""
        total = 0.0
        for _res, victim, culprit, cell in self.cells():
            if victim != culprit:
                total += cell[0]
        return total

    def cross_tenant_wait_by_victim(self) -> Dict[str, float]:
        """Cross-tenant wait so far per victim label, summed over the
        resources in sorted order; victims in label order."""
        return victim_totals(self.cross_wait)


def victim_totals(cross_wait: Dict[Tuple[str, Any], float]) \
        -> Dict[str, float]:
    """Per-victim sums of a ``(resource, victim) -> wait`` map, adding
    each victim's resources in sorted order; keyed by the victim's
    string label, in label order."""
    waits: Dict[str, float] = {}
    for victim, _resource, wait in sorted(
            (str(victim), resource, wait)
            for (resource, victim), wait in cross_wait.items()):
        waits[victim] = waits.get(victim, 0.0) + wait
    return waits


#: One (victim, culprit) cell: attributed wait and blamed-event count.
Cell = Dict[str, float]
#: resource -> (victim, culprit) -> cell.
BlameMatrix = Dict[str, Dict[Tuple[str, str], Cell]]


def blame_matrix(accountant: Optional[InterferenceAccountant] = None,
                 resource: Optional[str] = None) -> BlameMatrix:
    """The interference matrices held by ``accountant`` (the current
    cell's by default).

    Returns ``{resource: {(victim, culprit): {"wait_ns": w, "events": n}}}``
    with tenant ids as string labels, resources and cells in sorted
    order (:meth:`InterferenceAccountant.cells`).  Each cell is a copy.
    """
    accountant = accountant if accountant is not None else get_accountant()
    matrix: BlameMatrix = {}
    cells: Dict[Tuple[str, str], Cell] = {}
    for res, victim, culprit, (wait, events) in accountant.cells(resource):
        if res not in matrix:
            cells = matrix[res] = {}
        cells[(victim, culprit)] = {"wait_ns": wait, "events": events}
    return matrix


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
    and blames each share on its owner, in culprit order, through one
    :meth:`InterferenceAccountant.blame_each` call.

    Segments are strictly sequential (each new one starts at the
    previous end or later), so only the head segment can straddle
    ``now`` — per-request cost is O(live clients), not O(queue length).
    The live clients are kept sorted as they come and go, so a request
    walks them in culprit order without sorting or copying anything.
    """

    __slots__ = ("resource", "_accountant", "_segments", "_totals",
                 "_clients")

    def __init__(self, resource: str,
                 accountant: Optional[InterferenceAccountant] = None) -> None:
        self.resource = resource
        self._accountant = accountant if accountant is not None \
            else get_accountant()
        #: Sequential (start, end, client) busy segments not yet consumed.
        self._segments: List[Tuple[float, float, int]] = []
        #: client -> total live-segment duration (the O(1) running sum).
        self._totals: Dict[int, float] = {}
        #: The keys of ``_totals``, sorted.
        self._clients: List[int] = []

    def occupy(self, client: int, start: float, end: float) -> None:
        """Record that ``client`` holds the resource over ``[start, end)``."""
        if end <= start:
            return
        self._segments.append((start, end, client))
        total = self._totals.get(client)
        if total is None:
            insort(self._clients, client)
            total = 0.0
        self._totals[client] = total + (end - start)

    def _prune(self, now_ns: float) -> None:
        consumed = 0
        for start, end, client in self._segments:
            if end > now_ns:
                break
            consumed += 1
            remaining = self._totals.get(client, 0.0) - (end - start)
            if remaining <= 1e-12:
                if self._totals.pop(client, None) is not None:
                    del self._clients[bisect_left(self._clients, client)]
            else:
                self._totals[client] = remaining
        if consumed:
            del self._segments[:consumed]

    def attribute(self, victim: int, now_ns: float, start_ns: float) -> None:
        """Blame the wait interval ``[now_ns, start_ns)`` on the owners
        of the busy segments covering it."""
        self._prune(now_ns)
        if start_ns <= now_ns or not self._segments:
            return
        totals = self._totals
        head_start, _head_end, head_client = self._segments[0]
        span = start_ns - now_ns
        shares: List[Tuple[int, float]] = []
        for culprit in self._clients:
            share = totals[culprit]
            if culprit == head_client and head_start < now_ns:
                # The in-flight head segment is partially consumed already.
                share = share - (now_ns - head_start)
            wait = span if span < share else share
            if wait > 1e-12:
                shares.append((culprit, wait))
        self._accountant.blame_each(self.resource, victim, shares)

    def reset(self) -> None:
        self._segments.clear()
        self._totals.clear()
        self._clients.clear()


def get_accountant() -> InterferenceAccountant:
    """The current cell's accountant, the one every hardware model
    blames into."""
    from repro.obs.cell import CELL

    return CELL.accountant
