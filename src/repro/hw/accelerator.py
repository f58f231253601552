"""Hardware accelerators: engines, hardware threads, and clusters.

Section 3.1: accelerators are special-purpose cores optimized for one
task (DPI regex matching, compression, RAID/storage, crypto).  A frontend
scheduler pulls requests from an instruction queue in DRAM and assigns
each to a hardware thread; threads pull operand data (e.g. the DPI
automaton graph) from the requesting function's RAM, caching hot parts in
accelerator-local SRAM.

Commodity behaviour (§3.2, Agilio): one engine shared by all cores with
unfettered physical-RAM access — contention is observable (a timing side
channel) and accelerator state has no confidentiality.

S-NIC behaviour (§4.3, Figure 3b): threads are statically grouped into
*clusters*; each cluster sits behind a private TLB bank configured by
``nf_launch`` so its threads can only touch the owning function's memory,
and the frontend reserves DRAM bandwidth per virtual accelerator.

The service-time model feeds Figure 8 (DPI throughput vs cluster size and
frame size).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.hw.memory import AccessFault
from repro.hw.mmu import TLB
from repro.obs.cell import CELL
from repro.obs.metrics import get_registry, instance_label


class AcceleratorKind(enum.Enum):
    DPI = "dpi"
    ZIP = "zip"
    RAID = "raid"
    CRYPTO = "crypto"


@dataclass(frozen=True)
class ServiceModel:
    """Per-request service time: ``setup_ns + n_bytes * ns_per_byte``."""

    setup_ns: float
    ns_per_byte: float

    def service_ns(self, n_bytes: int) -> float:
        return self.setup_ns + n_bytes * self.ns_per_byte


#: Calibrated so the Figure 8 sweep lands in the paper's envelope
#: (DPI throughput in the ~0.1–1 Mpps band across 64 B–9 KB frames).
DEFAULT_SERVICE_MODELS: Dict[AcceleratorKind, ServiceModel] = {
    AcceleratorKind.DPI: ServiceModel(setup_ns=10_000.0, ns_per_byte=25.0),
    AcceleratorKind.ZIP: ServiceModel(setup_ns=6_000.0, ns_per_byte=18.0),
    AcceleratorKind.RAID: ServiceModel(setup_ns=4_000.0, ns_per_byte=2.0),
    AcceleratorKind.CRYPTO: ServiceModel(setup_ns=2_000.0, ns_per_byte=8.0),
}

#: The frontend scheduler can dispatch at most this many requests/sec,
#: independent of thread count (it is a single pipeline).
FRONTEND_DISPATCH_RATE_RPS = 1_000_000.0


@dataclass
class AcceleratorRequest:
    """One unit of accelerator work."""

    owner: int
    n_bytes: int
    issue_ns: float
    complete_ns: float = 0.0
    #: Optional behavioural payload: the cluster runs ``work()`` when the
    #: request is served (e.g. actually executing an Aho–Corasick scan).
    work: Optional[Callable[[], object]] = None
    result: object = None

    @property
    def latency_ns(self) -> float:
        return self.complete_ns - self.issue_ns


class _ThreadPool:
    """Earliest-available-thread scheduling over ``n_threads``."""

    def __init__(self, n_threads: int) -> None:
        if n_threads <= 0:
            raise ValueError("need at least one hardware thread")
        self.n_threads = n_threads
        self._free_at = [0.0] * n_threads

    def serve(self, issue_ns: float, service_ns: float) -> float:
        index = min(range(self.n_threads), key=lambda i: self._free_at[i])
        start = max(issue_ns, self._free_at[index])
        complete = start + service_ns
        self._free_at[index] = complete
        return complete

    def busy_at(self, t: float) -> int:
        """Threads still occupied at instant ``t`` (the queue-depth probe)."""
        return sum(1 for free_at in self._free_at if free_at > t)

    def reset(self) -> None:
        self._free_at = [0.0] * self.n_threads


class AcceleratorCluster:
    """A group of hardware threads bound to one network function (§4.3).

    The cluster's TLB bank restricts which physical memory its threads
    may touch; ``nf_launch`` installs the entries and locks the bank.
    A TLB miss in a locked cluster bank is a fatal error by design.
    """

    def __init__(
        self,
        kind: AcceleratorKind,
        cluster_id: int,
        n_threads: int,
        tlb_capacity: int = 70,
        service: Optional[ServiceModel] = None,
    ) -> None:
        self.kind = kind
        self.cluster_id = cluster_id
        self.threads = _ThreadPool(n_threads)
        self.tlb = TLB(capacity=tlb_capacity, name=f"{kind.value}-cluster{cluster_id}")
        self.service = service or DEFAULT_SERVICE_MODELS[kind]
        self.owner: Optional[int] = None
        self.completed: int = 0
        self._dispatch_interval_ns = 1e9 / FRONTEND_DISPATCH_RATE_RPS
        self._last_dispatch_ns = -1e18
        self._obs_label = instance_label(f"{kind.value}-cluster{cluster_id}")
        self._obs_track = f"{kind.value}-cluster{cluster_id}"
        self._obs_by_tenant: Dict[Optional[int], tuple] = {}
        self._occupancy_gauge = None

    @property
    def n_threads(self) -> int:
        return self.threads.n_threads

    @property
    def allocated(self) -> bool:
        return self.owner is not None

    def bind(self, nf_id: int) -> None:
        if self.allocated:
            raise AccessFault(
                f"{self.kind.value} cluster {self.cluster_id} already "
                f"bound to NF {self.owner}"
            )
        self.owner = nf_id

    def unbind(self) -> None:
        self.owner = None
        self.completed = 0
        self.threads.reset()
        self.tlb.clear(force=True)
        self._last_dispatch_ns = -1e18

    def submit(self, request: AcceleratorRequest) -> AcceleratorRequest:
        """Serve one request; fills ``complete_ns`` (and ``result``)."""
        if self.owner is not None and request.owner != self.owner:
            raise AccessFault(
                f"request from NF {request.owner} on a cluster owned by "
                f"NF {self.owner}"
            )
        # Frontend dispatch is serialized.
        dispatch = max(request.issue_ns, self._last_dispatch_ns + self._dispatch_interval_ns)
        self._last_dispatch_ns = dispatch
        service_ns = self.service.service_ns(request.n_bytes)
        request.complete_ns = self.threads.serve(dispatch, service_ns)
        if request.work is not None:
            request.result = request.work()
        self.completed += 1
        self._observe(request, dispatch)
        return request

    def _observe(self, request: AcceleratorRequest, dispatch_ns: float) -> None:
        """Per-request telemetry: latency histogram, thread occupancy
        gauge, and (when tracing) a tenant-tagged span.  Instruments are
        cached per tenant so the steady-state cost is two increments."""
        tenant = request.owner
        instruments = self._obs_by_tenant.get(tenant)
        if instruments is None:
            registry = get_registry()
            instruments = (
                registry.counter("accel_requests_total",
                                 cluster=self._obs_label,
                                 kind=self.kind.value, tenant=tenant),
                registry.histogram("accel_latency_ns",
                                   cluster=self._obs_label,
                                   kind=self.kind.value, tenant=tenant),
            )
            self._obs_by_tenant[tenant] = instruments
            self._occupancy_gauge = registry.gauge(
                "accel_thread_occupancy", cluster=self._obs_label,
                kind=self.kind.value, tenant=tenant)
        requests_counter, latency_hist = instruments
        requests_counter.value += 1.0
        latency_hist.observe(request.latency_ns)
        tracer = CELL.tracer
        if tracer.enabled:
            occupancy = self.threads.busy_at(dispatch_ns)
            self._occupancy_gauge.set(occupancy)
            tracer.complete(
                f"accel.{self.kind.value}", dispatch_ns,
                request.complete_ns - dispatch_ns, tenant=tenant,
                track=self._obs_track, cat="accel", bytes=request.n_bytes)
            tracer.counter_sample(
                f"{self._obs_track}.occupancy", occupancy,
                ts_ns=dispatch_ns, tenant=tenant,
                track=self._obs_track, cat="accel")

    def throughput_mpps(self, frame_bytes: int) -> float:
        """Steady-state throughput for fixed-size frames (Figure 8).

        min(thread-limited rate, frontend dispatch rate), in Mpps.
        """
        service_s = self.service.service_ns(frame_bytes) / 1e9
        thread_rate = self.n_threads / service_s
        return min(thread_rate, FRONTEND_DISPATCH_RATE_RPS) / 1e6

    def measure_throughput_mpps(
        self, frame_bytes: int, n_requests: int = 2000
    ) -> float:
        """Event-driven throughput: saturate the cluster and measure.

        Submits ``n_requests`` back-to-back (open-loop, issue time 0 —
        the "randomly generated on 16 programmable cores" stress test of
        Appendix C) and divides by the makespan.  Cross-checks the
        closed-form :meth:`throughput_mpps`; the two agree in the tests.
        """
        cluster = AcceleratorCluster(
            kind=self.kind,
            cluster_id=-1,
            n_threads=self.n_threads,
            service=self.service,
        )
        last_completion = 0.0
        for _ in range(n_requests):
            request = AcceleratorRequest(owner=0, n_bytes=frame_bytes, issue_ns=0.0)
            cluster.submit(request)
            last_completion = max(last_completion, request.complete_ns)
        if last_completion <= 0:
            return 0.0
        return n_requests / last_completion * 1e3  # req/ns -> Mpps


class AcceleratorEngine:
    """A physical accelerator: 64 hardware threads, cluster-partitionable.

    In *shared* mode (commodity) every request goes to one big pool and
    co-tenant contention is observable.  :meth:`split_clusters` converts
    the engine into S-NIC's statically-partitioned virtual accelerators.
    """

    def __init__(
        self,
        kind: AcceleratorKind,
        n_threads: int = 64,
        service: Optional[ServiceModel] = None,
        tlb_capacity_per_cluster: int = 70,
    ) -> None:
        self.kind = kind
        self.total_threads = n_threads
        self.service = service or DEFAULT_SERVICE_MODELS[kind]
        self._tlb_capacity = tlb_capacity_per_cluster
        self._shared_pool: Optional[_ThreadPool] = _ThreadPool(n_threads)
        self.clusters: List[AcceleratorCluster] = []

    @property
    def is_shared(self) -> bool:
        return self._shared_pool is not None

    def submit_shared(self, request: AcceleratorRequest) -> AcceleratorRequest:
        """Commodity path: any owner, one contended pool, raw RAM access."""
        if not self.is_shared:
            raise AccessFault(
                f"{self.kind.value} engine is cluster-partitioned; "
                "use a cluster owned by the requesting NF"
            )
        service_ns = self.service.service_ns(request.n_bytes)
        request.complete_ns = self._shared_pool.serve(request.issue_ns, service_ns)
        if request.work is not None:
            request.result = request.work()
        tracer = CELL.tracer
        if tracer.enabled:
            # Commodity path: every tenant lands on the same shared
            # track, which is precisely the contention picture §3.2
            # complains about.
            tracer.complete(
                f"accel.{self.kind.value}.shared", request.issue_ns,
                request.complete_ns - request.issue_ns,
                tenant=request.owner, track=f"{self.kind.value}-shared",
                cat="accel", bytes=request.n_bytes)
        return request

    def split_clusters(self, threads_per_cluster: int) -> List[AcceleratorCluster]:
        """Statically partition threads into clusters (S-NIC, §4.3)."""
        if threads_per_cluster <= 0:
            raise ValueError("cluster size must be positive")
        if self.total_threads % threads_per_cluster:
            raise ValueError(
                f"{self.total_threads} threads do not divide into "
                f"clusters of {threads_per_cluster}"
            )
        n_clusters = self.total_threads // threads_per_cluster
        self._shared_pool = None
        self.clusters = [
            AcceleratorCluster(
                kind=self.kind,
                cluster_id=i,
                n_threads=threads_per_cluster,
                tlb_capacity=self._tlb_capacity,
                service=self.service,
            )
            for i in range(n_clusters)
        ]
        return self.clusters

    def free_clusters(self) -> List[AcceleratorCluster]:
        return [c for c in self.clusters if not c.allocated]

    def allocate_clusters(self, nf_id: int, count: int) -> List[AcceleratorCluster]:
        """Bind ``count`` free clusters to ``nf_id`` (used by nf_launch)."""
        free = self.free_clusters()
        if len(free) < count:
            raise AccessFault(
                f"{self.kind.value}: wanted {count} clusters, "
                f"only {len(free)} free"
            )
        chosen = free[:count]
        for cluster in chosen:
            cluster.bind(nf_id)
        return chosen
