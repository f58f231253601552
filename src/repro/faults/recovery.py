"""Recovery machinery: watchdogs, bounded retry, scrub-verified restart.

Everything here runs on *simulated* time — watchdog deadlines are
kernel events on :class:`~repro.hw.events.Simulator`, retry backoff
adds nanoseconds to the faulted operation's completion time — so
recovery behaviour is as deterministic and replayable as the faults
themselves.

The S-NIC restart path is the paper's §4.6 lifecycle driven in anger:
``nf_teardown`` scrubs and frees the crashed function's extent, the
supervisor *verifies* the scrub from page metadata, then relaunches the
same config as a fresh identity.  The commodity counterpart
(:class:`CommodityRecovery`) is the §3.3 reality: recovery is a whole-
NIC power cycle that every co-tenant fate-shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import (
    FaultInjected,
    IsolationViolation,
    RecoveryExhausted,
    WatchdogTimeout,
)
from repro.hw.memory import FREE, PhysicalMemory
from repro.obs.auditlog import get_emitter
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer

_AUDIT = get_emitter()


class Watchdog:
    """Named sim-time deadline timers on an event kernel.

    ``arm`` schedules a deadline; ``pet`` pushes it out by the full
    timeout again (the hardware-watchdog contract: a healthy component
    keeps petting, a hung one lets the deadline fire).  On expiry the
    timeout is recorded, tenant-tagged telemetry is emitted, and the
    handler runs — or, with no handler, :class:`WatchdogTimeout` is
    raised out of the kernel's ``step``.
    """

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self._timers: Dict[str, Tuple[Any, int, Optional[Callable[..., None]],
                                      Optional[int]]] = {}
        #: (name, fired_at_ns, tenant) for every expiry, in fire order.
        self.timeouts: List[Tuple[str, int, Optional[int]]] = []

    def arm(self, name: str, timeout_ns: int,
            on_timeout: Optional[Callable[[WatchdogTimeout], None]] = None,
            tenant: Optional[int] = None) -> None:
        self.disarm(name)
        handle = self.sim.schedule(int(timeout_ns),
                                   lambda: self._fire(name))
        self._timers[name] = (handle, int(timeout_ns), on_timeout, tenant)

    def pet(self, name: str) -> None:
        """Reset ``name``'s deadline to a full timeout from now."""
        if name not in self._timers:
            raise KeyError(f"watchdog {name!r} is not armed")
        handle, timeout_ns, on_timeout, tenant = self._timers[name]
        handle.cancel()
        fresh = self.sim.schedule(timeout_ns, lambda: self._fire(name))
        self._timers[name] = (fresh, timeout_ns, on_timeout, tenant)

    def disarm(self, name: str) -> None:
        entry = self._timers.pop(name, None)
        if entry is not None:
            entry[0].cancel()

    @property
    def armed(self) -> List[str]:
        return sorted(self._timers)

    def _fire(self, name: str) -> None:
        _handle, timeout_ns, on_timeout, tenant = self._timers.pop(name)
        fired_at = self.sim.now_ns
        self.timeouts.append((name, fired_at, tenant))
        get_registry().counter(
            "fault_watchdog_timeouts_total", watchdog=name,
            tenant=tenant).inc()
        if _AUDIT.active:
            _AUDIT.emit("watchdog.timeout", tenant=tenant, ts_ns=fired_at,
                        watchdog=name, timeout_ns=timeout_ns)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant("fault.watchdog_timeout", ts_ns=fired_at,
                           tenant=tenant, track="faults", cat="faults",
                           watchdog=name)
        timeout = WatchdogTimeout(
            f"watchdog {name!r} expired after {timeout_ns} ns "
            f"(at {fired_at} ns)")
        if on_timeout is None:
            raise timeout
        on_timeout(timeout)


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff (all values in integer ns)."""

    attempts: int = 4
    base_ns: int = 500
    factor: int = 2
    max_ns: int = 8_000

    def backoff_ns(self, attempt: int) -> int:
        return min(self.base_ns * self.factor ** attempt, self.max_ns)


def retry_dma(op: Callable[[int, float], Optional[float]],
              *,
              policy: Optional[BackoffPolicy] = None,
              now_ns: float = 0.0,
              tenant: Optional[int] = None) -> Optional[float]:
    """Retry a DMA operation under bounded exponential backoff.

    ``op(bytes_done, now_ns)`` performs the *remaining* transfer —
    callers advance their source/destination addresses by the running
    ``bytes_done`` — and returns the completion time.  On
    :class:`FaultInjected` the retry resumes no earlier than the faulted
    attempt's ``completion_ns`` (the engine really was occupied) plus
    the policy's backoff; partial completions advance ``bytes_done`` so
    landed bytes are not re-sent.  When the attempt budget runs out,
    :class:`RecoveryExhausted` chains the final fault.
    """
    policy = policy or BackoffPolicy()
    done = 0
    cursor = float(now_ns)
    for attempt in range(policy.attempts + 1):
        try:
            return op(done, cursor)
        except FaultInjected as exc:
            done += exc.bytes_done
            resume = exc.completion_ns if exc.completion_ns is not None \
                else cursor
            if attempt >= policy.attempts:
                if _AUDIT.active:
                    _AUDIT.emit("recovery.exhausted", tenant=tenant,
                                op="dma", attempts=policy.attempts,
                                bytes_done=done)
                raise RecoveryExhausted(
                    f"DMA retry budget ({policy.attempts}) exhausted "
                    f"after {done} bytes") from exc
            cursor = float(resume) + policy.backoff_ns(attempt)
            get_registry().counter(
                "fault_retries_total", op="dma", tenant=tenant).inc()
    return None  # pragma: no cover — loop always returns or raises


def verify_scrubbed(memory: PhysicalMemory, pages: List[int]) -> List[str]:
    """Check §4.6 post-teardown state from page *metadata* only.

    Returns a (possibly empty) list of problems.  Uses the page table
    (``owner``/``dirty_from``/backing presence), never a data read —
    reading the pages would itself be an unmediated access.
    """
    problems: List[str] = []
    for page in pages:
        info = memory._info.get(page)
        if info is None:
            continue  # never materialised ⇒ trivially clean
        if info.owner is not FREE:
            problems.append(f"page {page} still owned by NF {info.owner}")
        if info.dirty_from is not None:
            problems.append(
                f"page {page} still dirty from NF {info.dirty_from}")
        if page in memory._pages:
            problems.append(f"page {page} still has backing bytes")
    return problems


class NFSupervisor:
    """Scrub-verified restart of a crashed network function (§4.6).

    ``on_crash(nf_id)`` runs the full S-NIC recovery sequence:

    1. snapshot the launch record (config, pages) before it vanishes;
    2. ``NF_destroy`` → ``nf_teardown`` scrubs and frees everything;
    3. verify the scrub from page metadata
       (:func:`verify_scrubbed` — a failure here is an
       :class:`IsolationViolation`, not a recovery detail);
    4. relaunch the same config as a *new* identity and re-attach the
       behavioural NF to the runtime; its next arrival wakes its poll.

    The restart budget is per function *name* (identities change across
    restarts); exceeding it raises :class:`RecoveryExhausted`.
    """

    def __init__(self, nic_os: Any, runtime: Any = None,
                 max_restarts: int = 2) -> None:
        self.nic_os = nic_os
        self.runtime = runtime
        self.max_restarts = max_restarts
        self._restarts_by_name: Dict[str, int] = {}
        #: (old_nf_id, new_nf_id) per successful restart.
        self.restarts: List[Tuple[int, int]] = []

    def on_crash(self, nf_id: int) -> Any:
        """Recover ``nf_id``; returns the relaunched function's vNIC."""
        snic = self.nic_os.snic
        record = snic.record(nf_id)
        config = record.config
        pages = list(record.pages)
        used = self._restarts_by_name.get(config.name, 0)
        if used >= self.max_restarts:
            if _AUDIT.active:
                _AUDIT.emit("recovery.exhausted", tenant=nf_id,
                            op="nf_restart", name=config.name,
                            attempts=self.max_restarts)
            raise RecoveryExhausted(
                f"NF {config.name!r} exceeded its restart budget "
                f"({self.max_restarts})")
        self._restarts_by_name[config.name] = used + 1

        nf = self.runtime.detach(nf_id) if self.runtime is not None \
            else None
        self.nic_os.NF_destroy(nf_id)

        problems = verify_scrubbed(snic.memory, pages)
        if problems:
            raise IsolationViolation(
                "post-teardown scrub verification failed: "
                + "; ".join(problems))

        vnic = self.nic_os.NF_create(config)
        if self.runtime is not None and nf is not None:
            self.runtime.attach(vnic.nf_id, nf)
        self.restarts.append((nf_id, vnic.nf_id))
        get_registry().counter(
            "fault_restarts_total", nf=config.name,
            tenant=vnic.nf_id).inc()
        if _AUDIT.active:
            _AUDIT.emit("recovery.restart", tenant=vnic.nf_id,
                        name=config.name, old_nf_id=nf_id,
                        new_nf_id=vnic.nf_id, scrub_verified=True)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant("fault.nf_restart", tenant=vnic.nf_id,
                           track="faults", cat="faults",
                           old_nf_id=nf_id, new_nf_id=vnic.nf_id)
        return vnic


class CommodityRecovery:
    """Graceful degradation, commodity style: the whole NIC reboots.

    The §3.3 study found that a faulty tenant on a commodity SmartNIC
    takes the device down with it (Agilio bus babble ⇒ host power
    cycle).  This models that: a ``power_cycle`` halts *every* tenant
    for ``reboot_ns`` and discards all in-flight work — the blast
    radius is the device, not the tenant.
    """

    def __init__(self, reboot_ns: int = 50_000) -> None:
        self.reboot_ns = int(reboot_ns)
        #: (requested_at_ns, ready_at_ns) per cycle.
        self.cycles: List[Tuple[float, float]] = []

    def power_cycle(self, now_ns: float) -> float:
        """Reboot the NIC; returns when it is serving again."""
        ready = float(now_ns) + self.reboot_ns
        self.cycles.append((float(now_ns), ready))
        get_registry().counter(
            "fault_power_cycles_total", tenant=None).inc()
        if _AUDIT.active:
            _AUDIT.emit("recovery.power_cycle", ts_ns=now_ns,
                        reboot_ns=self.reboot_ns)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant("fault.power_cycle", ts_ns=now_ns, tenant=None,
                           track="faults", cat="faults",
                           reboot_ns=self.reboot_ns)
        return ready
