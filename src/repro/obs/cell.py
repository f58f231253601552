"""``repro.obs.cell`` — the one owner of a cell's process state.

S-NIC gives each network function its own state, created at launch and
scrubbed at teardown (§4.6); the simulator's unit of isolation is the
*cell*, one simulated NIC run start to finish.  Everything a cell
writes outside the objects it builds lives in one :class:`CellState`:
the metrics registry, the tracer, the hash-chained audit log, the
interference accountant and the event-kernel tallies.  The tracer and
the audit log are the cell's only event sinks, each fed by one call.

:data:`CELL` is the module-level holder every instrumented module
reads (``if CELL.audit.enabled:``, ``tracer = CELL.tracer``).  It stays
the same object for the life of the process; between cells
:func:`repro.obs.bench.isolate` swaps in the fields of a freshly built
:class:`CellState`, so nothing one cell left behind reaches the next
and nothing needs clearing in place.  Never bind a field to a module
global (``_TRACER = CELL.tracer``): the alias would keep the first
cell's object.  ``python -m repro lint`` (SNIC010) flags any
module-level mutable a cell writes that is not part of this state.
"""

from __future__ import annotations

from repro.obs.auditlog import AuditLog
from repro.obs.interference import InterferenceAccountant
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class KernelStats:
    """Tallies of discrete-event work, fed by every
    :class:`~repro.hw.events.Simulator` (two integer adds per event)."""

    __slots__ = ("events_executed", "sim_ns_advanced")

    def __init__(self) -> None:
        self.events_executed = 0
        self.sim_ns_advanced = 0


class CellState:
    """One cell's process state, every field a new object."""

    __slots__ = ("registry", "tracer", "audit", "accountant", "kernel")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.audit = AuditLog()
        self.accountant = InterferenceAccountant(self.registry)
        self.kernel = KernelStats()

    def install(self, fresh: CellState) -> None:
        """Take over every field of ``fresh``; the holder stays put."""
        for name in CellState.__slots__:
            setattr(self, name, getattr(fresh, name))


#: The holder of the current cell's state.
CELL = CellState()
