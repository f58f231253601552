"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a schedule of typed fault events pinned to
simulated-time instants.  Determinism is the whole point: the plan owns
a ``random.Random(seed)`` and never consults the wall clock, so the
same seed always expands to byte-identical schedules — which is what
lets the chaos CLI promise "same ``--seed`` ⇒ byte-identical report"
and lets a failure found in CI be replayed locally.

The taxonomy follows the failure surfaces the paper's §3.3 commodity
study exercises (shared bus, shared DMA engines, shared NIC OS, shared
wire-facing firmware) plus the hardware faults any long-lived NIC
deployment sees (DRAM bit-flips, wedged accelerators, hung cores).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple


class FaultKind(str, enum.Enum):
    """Typed fault classes the injector knows how to arm."""

    #: Flip bits in DRAM cells (silent data corruption).
    DRAM_BIT_FLIP = "dram_bit_flip"
    #: A DMA transfer completes on the engine but reports failure.
    DMA_ERROR = "dma_error"
    #: A DMA transfer lands only a prefix of its bytes, then fails.
    DMA_PARTIAL = "dma_partial"
    #: A wire packet is silently dropped before staging.
    WIRE_DROP = "wire_drop"
    #: A wire packet's payload is garbled (headers intact).
    WIRE_CORRUPT = "wire_corrupt"
    #: A wire packet is staged twice.
    WIRE_DUPLICATE = "wire_duplicate"
    #: A wire packet is held and released after later arrivals.
    WIRE_REORDER = "wire_reorder"
    #: A programmable core stops retiring instructions.
    CORE_HANG = "core_hang"
    #: An accelerator thread wedges for a long service time.
    ACCEL_TIMEOUT = "accel_timeout"
    #: The NF raises ``FatalFunctionError`` mid-handler.
    NF_CRASH = "nf_crash"
    #: The NIC OS management core stops responding.
    NIC_OS_STALL = "nic_os_stall"
    #: A device streams garbage requests onto the shared bus.
    BUS_BABBLE = "bus_babble"


#: Every kind, in declaration order (the chaos matrix iterates this).
ALL_FAULT_KINDS: Tuple[FaultKind, ...] = tuple(FaultKind)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *kind* strikes *tenant* at ``at_ns``."""

    at_ns: int
    kind: FaultKind
    tenant: Optional[int] = None
    params: Dict[str, object] = field(default_factory=dict)

    def param(self, name: str, default: object = None) -> object:
        return self.params.get(name, default)


class FaultPlan:
    """A seeded, declarative schedule of :class:`FaultEvent` instances.

    >>> plan = FaultPlan(seed=7)
    >>> plan.at(1_000, FaultKind.DMA_ERROR, tenant=1)
    >>> plan.burst(FaultKind.WIRE_DROP, tenant=2, start_ns=0,
    ...            count=3, period_ns=500, jitter_ns=100)
    >>> [e.at_ns for e in plan.events()]  # doctest: +SKIP
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        #: The plan's private RNG — the only randomness source any
        #: faults code may touch (rule SNIC002 flags unseeded and
        #: process-global RNGs anywhere).
        self.rng = Random(self.seed)
        self._events: List[FaultEvent] = []

    # ------------------------------------------------------------------
    # Authoring
    # ------------------------------------------------------------------

    def at(self, at_ns: int, kind: FaultKind,
           tenant: Optional[int] = None, **params: object) -> FaultEvent:
        """Schedule one fault at an exact sim-time instant."""
        if at_ns < 0:
            raise ValueError(f"fault instant must be >= 0, got {at_ns}")
        event = FaultEvent(at_ns=int(at_ns), kind=FaultKind(kind),
                           tenant=tenant, params=dict(params))
        self._events.append(event)
        return event

    def burst(self, kind: FaultKind, tenant: Optional[int],
              start_ns: int, count: int, period_ns: int,
              jitter_ns: int = 0, **params: object) -> List[FaultEvent]:
        """Expand ``count`` faults spaced ``period_ns`` apart.

        ``jitter_ns`` perturbs each instant by a draw from the plan's
        seeded RNG (uniform integers in ``[-jitter_ns, +jitter_ns]``),
        clamped to stay non-negative.  Same seed ⇒ same instants.
        """
        events = []
        for i in range(count):
            at = int(start_ns) + i * int(period_ns)
            if jitter_ns:
                at += self.rng.randint(-int(jitter_ns), int(jitter_ns))
            events.append(self.at(max(at, 0), kind, tenant, **params))
        return events

    def rate(self, kind: FaultKind, tenant: Optional[int],
             start_ns: int, duration_ns: int, mean_period_ns: int,
             **params: object) -> List[FaultEvent]:
        """Expand a Poisson-ish arrival process over a window.

        Inter-arrival gaps are drawn exponentially from the seeded RNG
        and floored to whole nanoseconds (the kernel is integer-timed),
        with a 1 ns minimum so the process always advances.
        """
        if mean_period_ns <= 0:
            raise ValueError("mean_period_ns must be positive")
        events = []
        cursor = int(start_ns)
        end = int(start_ns) + int(duration_ns)
        while True:
            gap = max(1, int(self.rng.expovariate(1.0 / mean_period_ns)))
            cursor += gap
            if cursor >= end:
                break
            events.append(self.at(cursor, kind, tenant, **params))
        return events

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------

    def events(self) -> List[FaultEvent]:
        """All scheduled events, stably sorted by instant.

        The sort is stable on insertion order, so two events at the
        same instant fire in authoring order — deterministically.
        """
        return sorted(self._events, key=lambda e: e.at_ns)

    def events_for(self, kind: FaultKind) -> List[FaultEvent]:
        return [e for e in self.events() if e.kind is FaultKind(kind)]

    def due(self, now_ns: int, consumed: int = 0) -> List[FaultEvent]:
        """Events at or before ``now_ns``, skipping the first
        ``consumed`` of the sorted schedule (cursor-style draining)."""
        return [e for e in self.events()[consumed:] if e.at_ns <= now_ns]

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, "
                f"events={len(self._events)})")
