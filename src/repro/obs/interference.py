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
``blame`` (one event per culprit, the same counters, the same mint
order).  Either way the blame lands in two tenant-tagged counter
families in the metrics registry, on one fixed label schema:

* ``interference_wait_ns_total{resource, tenant, culprit}`` —
  nanoseconds the victim (``tenant``) spent waiting behind the
  culprit's traffic;
* ``interference_events_total{resource, tenant, culprit}`` — how many
  of the victim's requests were delayed by that culprit.

A pair's first blame mints both counters from one label tuple,
``(("culprit", c), ("resource", r), ("tenant", v))`` in sorted label
order (:func:`pair_labels`), through the registry's get-or-create, so
they are the same instruments ``registry.counter(...)`` with those
keywords returns; the accountant then memoises them per victim and
culprit, and a repeat blame adds two floats.  :func:`blame_matrix`
reads labels on that schema by position and parses any other label
set by name.  The accountant also keeps a running cross-tenant wait
per ``(resource, victim)``, which the SLO windows
(:mod:`repro.obs.windows`) and the scorecard read.

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
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import Counter, LabelKey, MetricsRegistry, get_registry

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


def pair_labels(resource: str, victim: Optional[int],
                culprit: Optional[int]) -> LabelKey:
    """The label key of one pair's counters: exactly what
    ``registry.counter(name, resource=..., tenant=..., culprit=...)``
    builds, on the fixed schema, in sorted label order."""
    return (("culprit", str(culprit)), ("resource", str(resource)),
            ("tenant", str(victim)))


#: One (resource, victim) row of the accountant's memo: the wait and
#: the events counters by culprit.
Row = Tuple[Dict[Optional[int], Counter], Dict[Optional[int], Counter]]


def _mint_pair(registry: MetricsRegistry, row: Row, resource: str,
               victim: Optional[int], culprit: Optional[int]) -> Counter:
    """Get or mint one pair's wait and events counters, in that order,
    from one label key (the two counters share it); file both in
    ``row`` and return the wait counter."""
    labels = pair_labels(resource, victim, culprit)
    waits, events = row
    wait = waits[culprit] = registry._get_or_create(Counter, WAIT_METRIC,
                                                     labels)
    events[culprit] = registry._get_or_create(Counter, EVENTS_METRIC, labels)
    return wait


class InterferenceAccountant:
    """The blame sink: resolves ``(resource, victim, culprit)`` to the
    registry's counter pair and adds to it.

    The pair is memoised in one row per ``(resource, victim)``, two
    dicts keyed by culprit, so a repeat blame costs two dict lookups
    and two float adds and builds nothing.  A miss mints both counters
    from one :func:`pair_labels` key through
    :meth:`MetricsRegistry._get_or_create`, in the same order as
    ``registry.counter`` calls would, and to the same instruments.  The
    accountant blames into one registry for life (the current cell's
    when none is given), and a registry never drops an instrument, so
    the memo never goes stale; each cell gets a new accountant with its
    registry (:class:`repro.obs.cell.CellState`).  Memo keys are the raw
    label values; tenant ids are ints (or ``None``), which never collide
    under ``==`` while stringifying differently.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._memo: Dict[Tuple[str, Optional[int]], Row] = {}
        #: ``(resource, victim) -> cross-tenant wait so far``: the sum of
        #: every share blamed on a culprit other than the victim.
        self.cross_wait: Dict[Tuple[str, Optional[int]], float] = {}

    @property
    def registry(self) -> MetricsRegistry:
        """The registry the pair counters live in."""
        return self._registry

    def _row(self, resource: str, victim: Optional[int]) -> Row:
        """The victim's memo row for ``resource``."""
        row = self._memo.get((resource, victim))
        if row is None:
            row = self._memo[(resource, victim)] = ({}, {})
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
        wait = row[0].get(culprit)
        if wait is None:
            wait = _mint_pair(self._registry, row, resource, victim, culprit)
        wait.value += wait_ns
        row[1][culprit].value += events
        if culprit != victim:
            key = (resource, victim)
            self.cross_wait[key] = self.cross_wait.get(key, 0.0) + wait_ns

    def blame_each(self, resource: str, victim: Optional[int],
                   waits: Iterable[Tuple[Optional[int], float]]) -> None:
        """One blamed event per ``(culprit, wait_ns)``, in order.

        Equivalent to calling :meth:`blame` once per entry with the
        default ``events=1`` -- the same counter values and the same
        mint order -- but looks the memo row up only once.
        """
        registry = self._registry
        row = self._row(resource, victim)
        wait_counters, event_counters = row
        cross = 0.0
        for culprit, wait_ns in waits:
            wait = wait_counters.get(culprit)
            if wait is None:
                wait = _mint_pair(registry, row, resource, victim, culprit)
            wait.value += wait_ns
            event_counters[culprit].value += 1
            if culprit != victim:
                cross += wait_ns
        if cross:
            key = (resource, victim)
            self.cross_wait[key] = self.cross_wait.get(key, 0.0) + cross

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

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


def _pair_of(labels: LabelKey) -> Tuple[str, str, str]:
    """``(resource, victim, culprit)`` of an interference key's labels:
    by position on the fixed schema :func:`pair_labels` builds, else
    searched by name, with ``"?"``/``"None"`` for a missing label."""
    if len(labels) == 3 and labels[0][0] == "culprit" \
            and labels[1][0] == "resource" and labels[2][0] == "tenant":
        return labels[1][1], labels[2][1], labels[0][1]
    res, victim, culprit = "?", "None", "None"
    for label, value in labels:
        if label == "resource":
            res = value
        elif label == "tenant":
            victim = value
        elif label == "culprit":
            culprit = value
    return res, victim, culprit


def _sorted_cells(cells: Dict[Tuple[str, str], Cell]) \
        -> Dict[Tuple[str, str], Cell]:
    """``cells`` in ``(victim, culprit)`` string order.

    Sorts integer ranks of the few distinct tenant labels instead of
    comparing string tuples; the order is the same.
    """
    names = sorted({label for pair in cells for label in pair})
    rank = {label: i for i, label in enumerate(names)}
    width = len(names)
    order = sorted(cells, key=lambda pair: rank[pair[0]] * width
                   + rank[pair[1]])
    return {pair: cells[pair] for pair in order}


def blame_matrix(registry: Optional[MetricsRegistry] = None,
                 resource: Optional[str] = None) -> BlameMatrix:
    """The interference matrices currently in the registry.

    Returns ``{resource: {(victim, culprit): {"wait_ns": w, "events": n}}}``
    with tenant ids as the registry's string labels.  Deterministically
    ordered (resources and cells sorted).  Reads the two counter
    families straight off the registry keys, without a full snapshot,
    and their labels by position (:func:`_pair_of`): each cell field is
    one instrument's value, so the scan order does not matter.
    """
    registry = registry if registry is not None else get_registry()
    matrix: BlameMatrix = {}
    for (name, labels), instrument in registry.items():
        if name == WAIT_METRIC:
            field = "wait_ns"
        elif name == EVENTS_METRIC:
            field = "events"
        else:
            continue
        res, victim, culprit = _pair_of(labels)
        if resource is not None and res != resource:
            continue
        cells = matrix.get(res)
        if cells is None:
            cells = matrix[res] = {}
        cell = cells.get((victim, culprit))
        if cell is None:
            cell = cells[(victim, culprit)] = {"wait_ns": 0.0, "events": 0.0}
        cell[field] += float(instrument.value)  # type: ignore[attr-defined]
    return {res: _sorted_cells(cells) for res, cells in sorted(matrix.items())}


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
        self._accountant = accountant or get_accountant()
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
