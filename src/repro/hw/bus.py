"""The NIC's internal IO bus and its arbiters.

Section 3.1: "network functions contend for bus bandwidth ... fair
allocation of other resources will be unfair in practice if NFs lack the
necessary bus bandwidth".  Section 3.3 demonstrates a bus DoS on the
Agilio that hard-crashed the NIC.  Section 4.5 fixes both with a trusted
bus arbiter using *temporal partitioning*: time is divided into epochs,
each owned by a single security domain, with a dead-time window at the
end of each epoch during which no new operations may issue so in-flight
operations drain before the epoch boundary.

Two arbiters are provided:

* :class:`FCFSArbiter` — the commodity baseline: one queue, first come
  first served.  A client's observed latency depends on every other
  client's traffic (a timing side channel), and a saturating client
  starves everyone (the DoS).
* :class:`TemporalPartitioningArbiter` — the S-NIC design: each domain
  may only issue during its own epochs, so its observed latency is a pure
  function of its *own* request stream.  Cross-domain interference is
  exactly zero by construction, at the cost of the dead time plus each
  domain seeing only ``1/n_domains`` of bus time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.cell import CELL
from repro.obs.interference import (
    RESOURCE_BUS,
    FCFSWaitAttributor,
    get_accountant,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, get_registry, \
    instance_label


class BusCrashed(Exception):
    """The watchdog declared the NIC wedged (the §3.3 Agilio hard-crash)."""


@dataclass
class BusRequest:
    """One bus transaction: ``n_bytes`` issued by ``client`` at ``issue_ns``."""

    client: int
    n_bytes: int
    issue_ns: float
    complete_ns: float = 0.0

    @property
    def latency_ns(self) -> float:
        return self.complete_ns - self.issue_ns


class FCFSArbiter:
    """Single-queue, first-come-first-served bus arbitration.

    ``request`` returns the completion time of the transaction.  The
    arbiter keeps a running ``busy_until`` horizon; a request issued
    while the bus is backlogged waits behind everything already queued —
    which is precisely why co-tenant traffic is observable.
    """

    def __init__(
        self,
        bandwidth_bytes_per_ns: float = 12.8,
        watchdog_timeout_ns: Optional[float] = None,
        per_request_overhead_ns: float = 0.0,
        resource: str = RESOURCE_BUS,
    ) -> None:
        if bandwidth_bytes_per_ns <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth_bytes_per_ns
        self.watchdog_timeout_ns = watchdog_timeout_ns
        #: Fixed arbitration/command cost per transaction; this is what
        #: lets tiny requests (semaphore decrements) saturate the bus.
        self.per_request_overhead_ns = per_request_overhead_ns
        self._busy_until = 0.0
        #: Wait-for attribution: the FCFS queue is the archetypal
        #: cross-tenant interference source, so every queueing delay is
        #: blamed on the clients whose in-flight transfers caused it.
        self._attribution = FCFSWaitAttributor(resource)

    def request(self, client: int, n_bytes: int, now_ns: float) -> float:
        start = max(now_ns, self._busy_until)
        queue_delay = start - now_ns
        self._attribution.attribute(client, now_ns, start)
        if (
            self.watchdog_timeout_ns is not None
            and queue_delay > self.watchdog_timeout_ns
        ):
            raise BusCrashed(
                f"bus backlog {queue_delay:.0f} ns exceeded watchdog "
                f"({self.watchdog_timeout_ns:.0f} ns); NIC requires power cycle"
            )
        completion = start + self.per_request_overhead_ns + n_bytes / self.bandwidth
        self._busy_until = completion
        self._attribution.occupy(client, start, completion)
        return completion

    @property
    def backlog_ns(self) -> float:
        return self._busy_until

    def reset(self) -> None:
        self._busy_until = 0.0
        self._attribution.reset()


class TemporalPartitioningArbiter:
    """Epoch-based temporal partitioning (Wang et al. [119], §4.5).

    Time is cut into fixed epochs assigned round-robin to the ``domains``.
    A domain may initiate transfers only during the *live* portion of its
    own epochs (``epoch_ns - dead_time_ns``); the dead time guarantees
    in-flight operations finish before the next domain's epoch.

    Each domain has an independent service cursor, so one domain's
    behaviour cannot perturb another's completion times: the
    non-interference property is structural, and the test suite asserts
    it bit-exactly.
    """

    def __init__(
        self,
        domains: List[int],
        bandwidth_bytes_per_ns: float = 12.8,
        epoch_ns: float = 1000.0,
        dead_time_ns: float = 100.0,
    ) -> None:
        if not domains:
            raise ValueError("need at least one security domain")
        if len(set(domains)) != len(domains):
            raise ValueError("duplicate domain ids")
        if not 0 <= dead_time_ns < epoch_ns:
            raise ValueError("dead time must be shorter than the epoch")
        self.domains = list(domains)
        self.bandwidth = bandwidth_bytes_per_ns
        self.epoch_ns = epoch_ns
        self.dead_time_ns = dead_time_ns
        self.live_ns = epoch_ns - dead_time_ns
        self._cursor: Dict[int, float] = {d: 0.0 for d in domains}
        self._accountant = get_accountant()

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    def _domain_index(self, client: int) -> int:
        try:
            return self.domains.index(client)
        except ValueError:
            raise KeyError(f"client {client} is not a registered bus domain")

    def _slot_start(self, slot_number: int, domain_index: int) -> float:
        """Absolute start time of the domain's ``slot_number``-th epoch."""
        return (slot_number * self.n_domains + domain_index) * self.epoch_ns

    def _next_live_point(self, t: float, domain_index: int) -> float:
        """Earliest instant >= ``t`` inside one of the domain's live windows."""
        cycle = self.n_domains * self.epoch_ns
        slot_number = int(t // cycle)
        for candidate in (slot_number - 1, slot_number, slot_number + 1):
            if candidate < 0:
                continue
            start = self._slot_start(candidate, domain_index)
            live_end = start + self.live_ns
            if t < start:
                return start
            if start <= t < live_end:
                return t
        # t was beyond this cycle's live window; take the next slot.
        return self._slot_start(slot_number + 1, domain_index)

    def request(self, client: int, n_bytes: int, now_ns: float) -> float:
        """Serve ``n_bytes`` for ``client``; returns the completion time.

        Service may span several of the domain's epochs; transfer only
        progresses inside live windows.
        """
        index = self._domain_index(client)
        remaining = float(n_bytes)
        t = max(now_ns, self._cursor[client])
        while True:
            t = self._next_live_point(t, index)
            cycle = self.n_domains * self.epoch_ns
            slot_start = (t // cycle) * cycle + index * self.epoch_ns
            live_end = slot_start + self.live_ns
            window = live_end - t
            capacity = window * self.bandwidth
            if remaining <= capacity:
                t += remaining / self.bandwidth
                self._cursor[client] = t
                # Everything beyond pure wire time is epoch-gap/dead-time
                # overhead plus queueing behind the domain's *own*
                # backlog: structurally self-inflicted, so the blame
                # stays on the requesting domain.  Cross-tenant
                # attribution under temporal partitioning is exactly
                # zero — the property `repro audit` gates on.
                wait = (t - now_ns) - float(n_bytes) / self.bandwidth
                if wait > 1e-9:
                    self._accountant.blame(RESOURCE_BUS, victim=client,
                                           culprit=client, wait_ns=wait)
                return t
            remaining -= capacity
            t = live_end  # spill into the next owned epoch

    def effective_bandwidth(self) -> float:
        """Per-domain long-run bandwidth: B * live/epoch / n_domains."""
        return self.bandwidth * (self.live_ns / self.epoch_ns) / self.n_domains

    def reset(self) -> None:
        self._cursor = {d: 0.0 for d in self.domains}


class DeficitRoundRobinArbiter:
    """Analytic deficit-round-robin arbitration — the work-conserving
    middle ground between :class:`FCFSArbiter` and
    :class:`TemporalPartitioningArbiter` (the pluggable-policy axis the
    scenario matrix sweeps).

    Model: backlogged clients share the wire in ``quantum_bytes``-sized
    turns.  A request first serializes behind its *own* outstanding
    work, then waits behind at most one quantum of each competing
    backlogged client per own quantum (the classic DRR bound), instead
    of behind every queued byte as under FCFS.  Unlike temporal
    partitioning, idle bandwidth is reusable — so cross-tenant
    interference is bounded but not zero, and the bounded wait is blamed
    on the backlogged competitors through the interference accountant.
    """

    def __init__(
        self,
        bandwidth_bytes_per_ns: float = 12.8,
        quantum_bytes: int = 1600,
        resource: str = RESOURCE_BUS,
    ) -> None:
        if bandwidth_bytes_per_ns <= 0:
            raise ValueError("bandwidth must be positive")
        if quantum_bytes < 1:
            raise ValueError("quantum must be >= 1 byte")
        self.bandwidth = bandwidth_bytes_per_ns
        self.quantum_bytes = quantum_bytes
        self.resource = resource
        #: Per-client service horizon: when that client's queued work ends.
        self._horizon: Dict[int, float] = {}
        self._accountant = get_accountant()

    def request(self, client: int, n_bytes: int, now_ns: float) -> float:
        own_start = max(now_ns, self._horizon.get(client, 0.0))
        own_quanta = max(1, -(-int(n_bytes) // self.quantum_bytes))
        quantum_ns = self.quantum_bytes / self.bandwidth
        # Each backlogged competitor interleaves at most one quantum per
        # own quantum — but never more than its actual remaining backlog.
        cross_wait = 0.0
        for other, until in sorted(self._horizon.items()):
            if other == client or until <= own_start:
                continue
            share = min(until - own_start, own_quanta * quantum_ns)
            cross_wait += share
            self._accountant.blame(self.resource, victim=client,
                                   culprit=other, wait_ns=share)
        self_wait = own_start - now_ns
        if self_wait > 1e-9:
            # Queueing behind the client's own earlier transfers is
            # self-inflicted, exactly as under temporal partitioning.
            self._accountant.blame(self.resource, victim=client,
                                   culprit=client, wait_ns=self_wait)
        completion = own_start + cross_wait + n_bytes / self.bandwidth
        self._horizon[client] = completion
        return completion

    def reset(self) -> None:
        self._horizon = {}


class IOBus:
    """The internal IO bus: an arbiter plus per-client accounting.

    Use :meth:`transfer` for every DMA / accelerator / core memory
    transaction that crosses the bus; it returns the observed latency,
    which is what side-channel probes measure.

    Per-client statistics live in the :mod:`repro.obs.metrics` registry
    (``bus_bytes_total``, ``bus_latency_ns``, ``bus_wait_ns``);
    ``bytes_by_client`` is a read-through view kept for the historical
    API.  With tracing enabled each transfer becomes a tenant-tagged
    span on the shared ``bus`` track, so co-tenant arbitration waits
    are directly visible in Perfetto.
    """

    def __init__(self, arbiter: Union[FCFSArbiter, TemporalPartitioningArbiter,
                                      DeficitRoundRobinArbiter],
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.arbiter = arbiter
        self.requests: List[BusRequest] = []
        self.record = False
        self._registry = registry if registry is not None else get_registry()
        self._obs_label = instance_label("bus")
        self._bytes: Dict[int, Counter] = {}
        self._latency: Dict[int, Histogram] = {}
        self._wait: Dict[int, Histogram] = {}

    @property
    def bytes_by_client(self) -> Dict[int, int]:
        """Read-through view over the registry's per-client byte counts."""
        return {client: int(counter.value)
                for client, counter in self._bytes.items()}

    def _instruments_for(self, client: int) -> Tuple[Counter, Histogram, Histogram]:
        bytes_counter = self._registry.counter(
            "bus_bytes_total", bus=self._obs_label, tenant=client)
        latency = self._registry.histogram(
            "bus_latency_ns", bus=self._obs_label, tenant=client)
        wait = self._registry.histogram(
            "bus_wait_ns", bus=self._obs_label, tenant=client)
        self._bytes[client] = bytes_counter
        self._latency[client] = latency
        self._wait[client] = wait
        return bytes_counter, latency, wait

    def transfer(self, client: int, n_bytes: int, now_ns: float) -> float:
        """Perform a transfer; returns latency (completion - issue)."""
        completion = self.arbiter.request(client, n_bytes, now_ns)
        latency = completion - now_ns
        bytes_counter = self._bytes.get(client)
        if bytes_counter is None:
            bytes_counter, latency_hist, wait_hist = self._instruments_for(client)
        else:
            latency_hist = self._latency[client]
            wait_hist = self._wait[client]
        bytes_counter.value += n_bytes
        latency_hist.observe(latency)
        # Arbitration wait: everything beyond the pure wire time — FCFS
        # queueing, per-request overhead, or epoch/dead-time gaps.
        bandwidth = getattr(self.arbiter, "bandwidth", None)
        if bandwidth:
            wait_hist.observe(max(0.0, latency - n_bytes / bandwidth))
        tracer = CELL.tracer
        if tracer.enabled:
            tracer.complete("bus.transfer", now_ns, latency, tenant=client,
                            track="bus", cat="bus", bytes=n_bytes)
        if self.record:
            self.requests.append(
                BusRequest(
                    client=client,
                    n_bytes=n_bytes,
                    issue_ns=now_ns,
                    complete_ns=completion,
                )
            )
        return latency
