"""Event-driven S-NIC runtime: packets over simulated time.

The step-wise API (``wire_arrival`` → ``process_ingress`` → ``run`` →
``process_egress``) is convenient for tests; real NICs interleave those
continuously.  :class:`SNICRuntime` drives an :class:`~repro.core.snic.SNIC`
on the discrete-event kernel (:mod:`repro.hw.events`):

* packet arrivals are scheduled at their trace timestamps;
* the packet input module runs at line-rate granularity (per arrival);
* each function's cores poll their RX ring on a fixed grid
  (``origin + k·poll_interval_ns``, ``k ≥ 1``, origin = the clock at
  the first :meth:`SNICRuntime.run`) and spend a modelled per-packet service
  time;
* the output module drains TX rings as functions produce packets.

Polls are woken on arrival: frames delivered to a function with no
armed poll arm one at the next grid point, which drains the ring and
does not re-arm.  Each frame meets the poll an always-on loop would
have served it with, so idle tenants cost no kernel events and
:meth:`SNICRuntime.run` can simply run until the queue is empty.

The runtime records per-packet end-to-end latency (wire-in → wire-out),
giving latency/throughput distributions for full-system experiments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.hw.events import EventHandle, Simulator
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.obs.tracer import get_tracer


@dataclass
class PacketTiming:
    """One packet's life cycle through the NIC."""

    nf_id: int
    arrival_ns: int
    departure_ns: int

    @property
    def latency_ns(self) -> int:
        return self.departure_ns - self.arrival_ns


def rank_percentile(latencies: Sequence[int], q: float) -> float:
    """The ``q``-th percentile of sorted ``latencies``: the value at
    index ``floor(q/100 · n)``, clamped to the last; ``0.0`` if empty."""
    if not latencies:
        return 0.0
    index = min(len(latencies) - 1, int(q / 100.0 * len(latencies)))
    return float(latencies[index])


@dataclass
class RuntimeStats:
    """Aggregate results of one run."""

    timings: List[PacketTiming] = field(default_factory=list)
    dropped: int = 0

    @property
    def completed(self) -> int:
        return len(self.timings)

    def latency_percentiles(self, *qs: float) -> List[float]:
        """Several percentiles over one sort of the latencies."""
        latencies = sorted(t.latency_ns for t in self.timings)
        return [rank_percentile(latencies, q) for q in qs]

    def throughput_mpps(self) -> float:
        if not self.timings:
            return 0.0
        span = max(t.departure_ns for t in self.timings) - min(
            t.arrival_ns for t in self.timings
        )
        return self.completed / span * 1e3 if span else 0.0


class SNICRuntime:
    """Drives an SNIC + its functions on simulated time."""

    def __init__(
        self,
        snic,
        poll_interval_ns: int = 2_000,
        service_ns_per_packet: int = 600,
    ) -> None:
        self.snic = snic
        self.sim = Simulator()
        self.poll_interval_ns = poll_interval_ns
        self.service_ns_per_packet = service_ns_per_packet
        self.stats = RuntimeStats()
        #: Optional completion observer, invoked as
        #: ``on_complete(nf_id, latency_ns, departure_ns)`` for every
        #: packet — how the SLO scorecard feeds per-tenant latency
        #: histograms at sim time without wrapping the runtime.
        self.on_complete: Optional[Callable[[int, int, int], None]] = None
        self._functions: Dict[int, NetworkFunction] = {}
        self._arrival_by_identity: Dict[int, Deque[int]] = {}
        #: The one armed poll per woken function, and the frames it
        #: must leave for the next grid point (see :meth:`_wake`).
        self._armed: Dict[int, EventHandle] = {}
        self._held: Dict[int, int] = {}
        self._origin_ns: Optional[int] = None  # the clock at first run()
        # Bind the tracer at construction time, not import time: a run
        # builds its runtime after its isolation reset, so the instance
        # must see the tracer singleton that reset installed.
        self._tracer = get_tracer()
        if self._tracer.enabled:
            # Put every subsequent trace event on this run's simulated
            # clock, so hardware spans and packet spans share one axis.
            self._tracer.use_clock(lambda: self.sim.now_ns)

    def attach(self, nf_id: int, nf: NetworkFunction) -> None:
        """Bind the behavioural NF that runs on ``nf_id``'s cores."""
        if nf_id not in self.snic.live_functions:
            raise ValueError(f"NF {nf_id} is not live on this S-NIC")
        self._functions[nf_id] = nf

    def detach(self, nf_id: int) -> Optional[NetworkFunction]:
        """Unbind a crashed identity so nothing fires against it once
        torn down: cancel its armed poll, drop its arrival stamps."""
        armed = self._armed.pop(nf_id, None)
        if armed is not None:
            armed.cancel()
        self._held.pop(nf_id, None)
        self._arrival_by_identity.pop(nf_id, None)
        return self._functions.pop(nf_id, None)

    # ------------------------------------------------------------------

    def inject(self, packets: Sequence[Packet]) -> None:
        """Schedule packet arrivals at their ``arrival_ns`` timestamps."""
        # Frames meet the poll an always-on loop would have served them
        # with.  That loop arms its poll at grid point T at T - P (or at
        # the first run()), so an arrival at T injected after then queues
        # behind.
        armed_until = -1 if self._origin_ns is None \
            else self.sim.now_ns + self.poll_interval_ns
        for packet in packets:
            behind = packet.arrival_ns <= armed_until
            self.sim.schedule_at(
                packet.arrival_ns,
                lambda p=packet, b=behind: self._on_arrival(p, b))

    def _on_arrival(self, packet: Packet, behind_poll: bool) -> None:
        self.snic.rx_port.wire_arrival(packet)
        delivered = self.snic.process_ingress()
        tracer = self._tracer
        for nf_id, count in delivered.items():
            if nf_id == -1:
                self.stats.dropped += count
                if tracer.enabled:
                    tracer.instant("packet.drop", ts_ns=self.sim.now_ns,
                                   tenant=None, track="rx-port",
                                   cat="runtime", count=count)
                continue
            queue = self._arrival_by_identity.setdefault(nf_id, deque())
            queue.extend([self.sim.now_ns] * count)
            if tracer.enabled:
                tracer.counter_sample(
                    f"nf{nf_id}.rx_ring",
                    self.snic.record(nf_id).vpp.rx_ring.occupancy,
                    ts_ns=self.sim.now_ns, tenant=nf_id, track="rx-ring",
                    cat="runtime")
            if nf_id in self._functions:
                self._wake(nf_id, count, behind_poll)

    def _wake(self, nf_id: int, count: int, behind_poll: bool) -> None:
        """Arm ``nf_id``'s poll at the first grid point that sees the
        ``count`` frames just delivered: at or after now, or the next
        one if they queued behind this instant's poll.  A poll already
        armed for this instant then leaves them for the next one.
        """
        now = self.sim.now_ns
        armed = self._armed.get(nf_id)
        if armed is not None:
            if behind_poll and armed.time_ns == now:
                self._held[nf_id] = self._held.get(nf_id, 0) + count
            return
        origin, period = self._origin_ns, self.poll_interval_ns
        if origin is None:
            raise RuntimeError("packet arrival executed before run()")
        due = origin + period * max(1, -(-(now - origin) // period))
        if behind_poll and due == now:
            due += period
        self._armed[nf_id] = self.sim.schedule_at(
            due, lambda: self._poll(nf_id))

    def _poll(self, nf_id: int) -> None:
        del self._armed[nf_id]
        nf = self._functions[nf_id]
        ring = self.snic.record(nf_id).vpp.rx_ring
        stamps = self._arrival_by_identity.get(nf_id)
        held = self._held.pop(nf_id, 0)
        for served in range(1, ring.occupancy - held + 1):
            frame = ring.pop()
            arrival = stamps.popleft() if stamps else self.sim.now_ns
            result = nf.process(Packet.from_bytes(frame))
            finish = self.sim.now_ns + served * self.service_ns_per_packet
            if self._tracer.enabled:
                # Serial per-core service: packet k occupies
                # [now + (k-1)*service, now + k*service).
                self._tracer.complete(
                    "nf.process",
                    finish - self.service_ns_per_packet,
                    self.service_ns_per_packet,
                    tenant=nf_id, track="nf-core", cat="runtime")
            if result is not None:
                self.sim.schedule_at(
                    finish,
                    lambda r=result, a=arrival, n=nf_id: self._on_complete(
                        n, r, a
                    ),
                )
        if held:
            self._armed[nf_id] = self.sim.schedule(
                self.poll_interval_ns, lambda: self._poll(nf_id))

    def _on_complete(self, nf_id: int, packet: Packet, arrival_ns: int) -> None:
        record = self.snic.record(nf_id)
        record.vpp.transmit(packet)
        record.vpp.drain_tx(self.snic.tx_port)
        self.stats.timings.append(
            PacketTiming(
                nf_id=nf_id, arrival_ns=arrival_ns, departure_ns=self.sim.now_ns
            )
        )
        if self._tracer.enabled:
            self._tracer.complete(
                "packet.e2e", arrival_ns, self.sim.now_ns - arrival_ns,
                tenant=nf_id, track="packet-latency", cat="runtime")
        if self.on_complete is not None:
            self.on_complete(nf_id, self.sim.now_ns - arrival_ns,
                             self.sim.now_ns)

    # ------------------------------------------------------------------

    def run(self, duration_ns: Optional[int] = None) -> RuntimeStats:
        """Run the experiment until the queue drains (or ``duration_ns``).

        The first call fixes the poll grid's origin at the kernel's
        clock.  An exception out of an event (a crashed function's
        :class:`~repro.core.errors.FatalFunctionError`) propagates; a
        later call resumes where it stopped.  Raises
        :class:`RuntimeError` if the kernel's ``max_events`` guard stops
        a drain with work still queued.
        """
        if self._origin_ns is None:
            self._origin_ns = self.sim.now_ns
        if duration_ns is not None:
            self.sim.run(until_ns=duration_ns)
            return self.stats
        self.sim.run()
        if self.sim.peek_next_ns() is not None:
            raise RuntimeError(
                f"run() hit the kernel's max_events guard at "
                f"{self.sim.now_ns} ns with work still queued")
        return self.stats
