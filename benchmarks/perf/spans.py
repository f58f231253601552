"""Timers and layer spans installed around ``repro``'s public entry points.

The benchmark measures the program from outside: nothing under ``src/``
knows it is being timed.  :class:`Patches` swaps a function or method
for a wrapper and puts the original back on :meth:`Patches.remove`,
leaving every patched attribute ``is``-identical to what it was.

Two instrument sets use it:

* :func:`install_timers` -- the cheap timers of a measured run: each
  ``BuiltScenario.deploy``, ``SNICRuntime.run`` and cell call is timed
  and ``Simulator.run`` return values are tallied.  Nothing else is
  wrapped, so the end-to-end numbers carry almost no overhead.
* :func:`install_trace` -- the traced run: every target in
  :data:`TARGETS` becomes a span of its layer.  A span's self time is
  its duration minus the durations of the spans it encloses, so layer
  self times partition the traced wall time.  Kernel self time comes
  from the ``Simulator.set_profiler`` hook: time in ``Simulator.run``
  outside event callbacks.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import monotonic_ns, perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Fine layers keep this many spans each in the Chrome trace; coarse
#: boundaries keep every span.  Every span feeds the layer totals.
FINE_SPAN_CAP = 20_000

#: ``NetworkFunction`` subclass name -> NF kind (the spec's ``kind``).
NF_KINDS = {
    "DPIEngine": "dpi",
    "Firewall": "firewall",
    "StatefulFirewall": "firewall",
    "DIR24_8": "lpm",
    "NAT": "nat",
    "MaglevLoadBalancer": "lb",
    "Monitor": "monitor",
}


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------


def resolve(path: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:func"`` -> (owner, attr,
    raw attribute).  For methods the owner is the class in the MRO that
    defines the attribute, and the raw value comes from its
    ``__dict__`` (so classmethods stay classmethod objects)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return klass, attr, vars(klass)[attr]
        raise AttributeError(f"{path}: no attribute {attr!r}")
    return owner, attr, getattr(owner, attr)


def _repro_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps
        #: its id from being reused while this object lives.
        self._wrappers: Dict[int, Tuple[Any, Any]] = {}

    def wrap(self, path: str, make: Callable[[Callable], Callable]) -> None:
        """Replace the target at ``path`` with ``make(original)``.

        Module-level functions are replaced in every loaded ``repro``
        module that holds them, because ``from m import f`` copies the
        binding.  Methods are replaced on their defining class.
        """
        owner, attr, raw = resolve(path)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper: Any = type(raw)(make(raw.__func__))
        else:
            wrapper = make(raw)
        self._wrappers[id(wrapper)] = (wrapper, raw)
        if isinstance(owner, type):
            self._set(owner, attr, raw, wrapper)
            return
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, key, raw, wrapper)

    def _set(self, owner: Any, attr: str, original: Any,
             wrapper: Any) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patched(self) -> List[Tuple[Any, str, Any]]:
        """Every (owner, attribute, original) this object replaced."""
        return list(self._undo)

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        # A module imported while the wrappers were live copied one by
        # name; give it the original too.
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])
        self._wrappers.clear()


# ----------------------------------------------------------------------
# Cheap timers (measured runs)
# ----------------------------------------------------------------------


#: A timed call: (start, end) in ``time.monotonic_ns``, the clock the
#: host-speed probe stamps its samples with.
Interval = Tuple[int, int]


@dataclass
class Timers:
    """What a measured run records besides its wall time."""

    deploy: List[Interval] = field(default_factory=list)
    runtime: List[Interval] = field(default_factory=list)
    runtime_packets: List[int] = field(default_factory=list)
    cell: List[Interval] = field(default_factory=list)
    events: int = 0


def install_timers(timers: Timers) -> Patches:
    """Wrap the four entry points a measured run times."""
    patches = Patches()

    def timed(into: List[Interval]) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = monotonic_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    into.append((start, monotonic_ns()))
            return wrapper
        return make

    def runtime_run(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = monotonic_ns()
            stats = fn(*args, **kwargs)
            timers.runtime.append((start, monotonic_ns()))
            timers.runtime_packets.append(stats.completed)
            return stats
        return wrapper

    def sim_run(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            executed = fn(*args, **kwargs)
            timers.events += executed
            return executed
        return wrapper

    patches.wrap("repro.scenario.build:BuiltScenario.deploy",
                 timed(timers.deploy))
    patches.wrap("repro.core.runtime:SNICRuntime.run", runtime_run)
    patches.wrap("repro.scenario.matrix:run_cell", timed(timers.cell))
    patches.wrap("repro.obs.scorecard:run_spec", timed(timers.cell))
    patches.wrap("repro.hw.events:Simulator.run", sim_run)
    return patches


# ----------------------------------------------------------------------
# Layer spans (traced runs)
# ----------------------------------------------------------------------


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def _returned(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result)


def _frame(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result is not None)


def _scrubbed(args: tuple, kwargs: dict, result: Any) -> int:
    scrub = kwargs.get("scrub", args[2] if len(args) > 2 else True)
    return int(result) if scrub else 0


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``counts`` maps count names to tally functions of ``(args, kwargs,
    result)``.  ``useful`` names a count to watch: when it grew during
    the call, the ``<useful>`` count ticks (how a poll that served at
    least one frame is told from an empty one).  ``coarse`` spans are
    all kept in the Chrome trace.
    """

    path: str
    layer: str
    counts: Tuple[Tuple[str, Callable[[tuple, dict, Any], int]], ...] = ()
    coarse: bool = False
    useful: Optional[Tuple[str, str]] = None


#: Every traced entry point, grouped by layer.  ``nf`` resolves to
#: ``nf.<kind>`` per call from the instance's class.
TARGETS: Tuple[Target, ...] = (
    # scenario: the coarse boundaries around each cell
    Target("repro.scenario.matrix:run_cell", "scenario.cell", coarse=True),
    Target("repro.obs.scorecard:run_spec", "scenario.cell", coarse=True),
    Target("repro.scenario.build:BuiltScenario.deploy", "scenario.deploy",
           coarse=True),
    Target("repro.scenario.build:BuiltScenario._drive_contention",
           "scenario.contention", coarse=True),
    # kernel
    Target("repro.hw.events:Simulator.run", "hw.events",
           counts=(("hw.events.events", _returned),)),
    # runtime
    Target("repro.core.runtime:SNICRuntime.run", "core.runtime",
           coarse=True),
    Target("repro.core.runtime:SNICRuntime.inject", "core.runtime"),
    Target("repro.core.runtime:SNICRuntime._on_arrival", "core.runtime"),
    Target("repro.core.runtime:SNICRuntime._poll", "core.runtime",
           counts=(("core.runtime.polls", _one),),
           useful=("hw.packet_io.frames", "core.runtime.useful_polls")),
    Target("repro.core.runtime:SNICRuntime._on_complete", "core.runtime"),
    # packet path
    Target("repro.core.snic:SNIC.process_ingress", "core.snic.ingress"),
    Target("repro.core.vpp:VirtualPacketPipeline.transmit",
           "core.vpp.egress"),
    Target("repro.core.vpp:VirtualPacketPipeline.drain_tx",
           "core.vpp.egress"),
    Target("repro.hw.packet_io:PacketRing.push", "hw.packet_io",
           counts=(("hw.packet_io.ring_ops", _one),)),
    Target("repro.hw.packet_io:PacketRing.pop", "hw.packet_io",
           counts=(("hw.packet_io.ring_ops", _one),
                   ("hw.packet_io.frames", _frame))),
    Target("repro.net.packet:Packet.from_bytes", "net.packet"),
    # network functions
    Target("repro.nf.base:NetworkFunction.process", "nf"),
    # contention rig
    Target("repro.hw.bus:IOBus.transfer", "hw.bus",
           counts=(("hw.bus.transfers", _one),)),
    Target("repro.hw.dma:DMABank.to_nic", "hw.dma"),
    Target("repro.hw.dma:DMABank.to_host", "hw.dma"),
    Target("repro.hw.dram:DRAMChannel.access", "hw.dram"),
    # telemetry
    Target("repro.obs.interference:InterferenceAccountant.blame",
           "obs.interference",
           counts=(("obs.interference.blames", _one),)),
    Target("repro.obs.interference:FCFSWaitAttributor.attribute",
           "obs.interference"),
    Target("repro.obs.interference:FCFSWaitAttributor.occupy",
           "obs.interference"),
    Target("repro.obs.interference:blame_matrix", "obs.interference"),
    Target("repro.obs.metrics:MetricsRegistry._get_or_create",
           "obs.metrics", counts=(("obs.metrics.lookups", _one),)),
    Target("repro.obs.metrics:MetricsRegistry.histogram", "obs.metrics",
           counts=(("obs.metrics.lookups", _one),)),
    Target("repro.obs.metrics:MetricsRegistry.snapshot", "obs.metrics"),
    Target("repro.obs.metrics:Histogram.observe", "obs.metrics"),
    Target("repro.obs.windows:WindowedAggregator.rotate", "obs.windows",
           counts=(("obs.windows.rotations", _one),), coarse=True),
    Target("repro.obs.slo:BurnRateAlerter.observe", "obs.slo"),
    Target("repro.obs.slo:evaluate_tenant", "obs.slo"),
    Target("repro.obs.auditlog:AuditLog.append", "obs.auditlog",
           counts=(("obs.auditlog.records", _one),)),
    Target("repro.obs.auditlog:AuditLog.verify_chain", "obs.auditlog",
           coarse=True),
    # crypto
    Target("repro.crypto.rsa:rsa_generate", "crypto.rsa"),
    Target("repro.crypto.rsa:rsa_sign", "crypto.rsa"),
    Target("repro.crypto.rsa:rsa_verify", "crypto.rsa"),
    Target("repro.crypto.sha256:sha256", "crypto.sha256"),
    # lifecycle
    Target("repro.core.snic:SNIC.__init__", "core.snic.init"),
    Target("repro.core.nic_os:NICOS.NF_create", "core.nic_os.create"),
    Target("repro.core.nic_os:NICOS.NF_destroy", "core.nic_os.destroy"),
    Target("repro.hw.memory:PhysicalMemory.release_pages", "hw.memory",
           counts=(("hw.memory.pages_scrubbed", _scrubbed),)),
    # faults
    Target("repro.faults.inject:FaultInjector._record", "faults",
           counts=(("faults.injected", _one),)),
    Target("repro.faults.recovery:retry_dma", "faults.recovery"),
)

#: Modules to import before wrapping, so that no module copies a
#: wrapper by name mid-run.  Covers every target and every module a
#: workload's CLI path imports lazily.
PRELOAD = (
    "repro.__main__", "repro.scenario.matrix", "repro.scenario.build",
    "repro.obs.scorecard", "repro.obs.bench", "repro.obs.openmetrics",
    "repro.analysis.isosan", "repro.faults.inject", "repro.faults.plan",
    "repro.faults.recovery", "repro.nf", "repro.core", "repro.core.runtime",
    "repro.net.vxlan",
)


class KernelHook:
    """The ``Simulator.set_profiler`` sink: host ns spent in callbacks."""

    __slots__ = ("callback_ns",)

    def __init__(self) -> None:
        self.callback_ns = 0

    def on_kernel_event(self, callback: Any, host_ns: int,
                        sim_ns: int) -> None:
        self.callback_ns += host_ns


class SpanTracer:
    """Span stack, per-layer self time, counts and a bounded span log."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns,
                 cap: int = FINE_SPAN_CAP) -> None:
        self.clock = clock
        self.cap = cap
        #: One [child_ns] cell per open span.
        self.stack: List[List[int]] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: Inclusive span time per layer (nested same-layer spans count
        #: twice; used only for the non-recursive ``hw.events``).
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: (layer, name, start_ns, dur_ns) in completion order.
        self.spans: List[Tuple[str, str, int, int]] = []
        self.kept: Dict[str, int] = defaultdict(int)
        self.dropped: Dict[str, int] = defaultdict(int)
        self.kernel = KernelHook()

    def span(self, layer: Any, name: str, fn: Callable,
             counts: Tuple[Tuple[str, Callable], ...] = (),
             coarse: bool = False,
             useful: Optional[Tuple[str, str]] = None) -> Callable:
        """``fn`` wrapped as a span of ``layer`` (a name, or a function
        of the call's first argument returning one)."""
        tracer = self
        clock = self.clock
        stack = self.stack
        dynamic = callable(layer)

        # The clock brackets the wrapper's own bookkeeping too, so that
        # tracing overhead lands in the traced layer's self time rather
        # than in whoever called it.
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            frame = [0]
            stack.append(frame)
            watched = tracer.counts[useful[0]] if useful else 0
            try:
                result = fn(*args, **kwargs)
                for count, tally in counts:
                    tracer.counts[count] += tally(args, kwargs, result)
                if useful and tracer.counts[useful[0]] > watched:
                    tracer.counts[useful[1]] += 1
                return result
            finally:
                stack.pop()
                span_layer = layer(args[0]) if dynamic else layer
                tracer.calls[span_layer] += 1
                keep = coarse or tracer.kept[span_layer] < tracer.cap
                if keep:
                    tracer.kept[span_layer] += 1
                else:
                    tracer.dropped[span_layer] += 1
                duration = clock() - start
                if stack:
                    stack[-1][0] += duration
                tracer.self_ns[span_layer] += duration - frame[0]
                tracer.total_ns[span_layer] += duration
                if keep:
                    tracer.spans.append((span_layer, name, start, duration))

        return wrapper


def _nf_layer(nf: Any) -> str:
    return "nf." + NF_KINDS.get(type(nf).__name__, type(nf).__name__)


def install_trace(tracer: SpanTracer) -> Patches:
    """Wrap every :data:`TARGETS` entry as a span, and attach the
    kernel hook to every ``Simulator`` built while installed."""
    patches = Patches()
    for target in TARGETS:
        layer: Any = _nf_layer if target.layer == "nf" else target.layer
        name = target.path.partition(":")[2]

        def make(fn: Callable, layer: Any = layer, name: str = name,
                 target: Target = target) -> Callable:
            return tracer.span(layer, name, fn, counts=target.counts,
                               coarse=target.coarse, useful=target.useful)

        patches.wrap(target.path, make)

    def sim_init(fn: Callable) -> Callable:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
            fn(self, *args, **kwargs)
            self.set_profiler(tracer.kernel)
        return wrapper

    patches.wrap("repro.hw.events:Simulator.__init__", sim_init)
    return patches


def chrome_trace(tracer: SpanTracer, metadata: Dict[str, Any]) -> dict:
    """The kept spans as a Chrome/Perfetto ``trace_event`` document."""
    events = [{"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
               "ts": start / 1e3, "dur": duration / 1e3}
              for layer, name, start, duration in tracer.spans]
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    other = dict(metadata)
    other["span_cap_per_fine_layer"] = tracer.cap
    other["spans_dropped_by_layer"] = dict(sorted(tracer.dropped.items()))
    other["note"] = ("fine layers keep only their first "
                     f"{tracer.cap} spans; coarse boundaries keep all; "
                     "layer totals count every span")
    return {"traceEvents": events, "displayTimeUnit": "ns",
            "otherData": other}
