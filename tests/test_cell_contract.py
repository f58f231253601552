"""The cell-state contract: one owner of a cell's process state, made
fresh per cell.

Every experiment cell runs between two :func:`repro.obs.bench.isolate`
calls, and ``isolate()`` installs a new :class:`repro.obs.cell.CellState`.
These tests hold that to what it promises:

* after ``isolate()`` every field is a new object, in the state of a
  freshly built one;
* the escape analysis finds no module-level mutable in ``src/repro``
  that a cell writes outside the cell state (SNIC010);
* two different cells run back to back in one process give the
  records each gives alone in a fresh interpreter;
* nothing keeps a finished cell's registry alive;
* the per-process memos (launch measurements, signatures, seeded keys)
  are invisible: a quick matrix run twice in one process reports what
  a fresh interpreter reports.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import os
import subprocess
import sys
import weakref
from collections import deque
from dataclasses import asdict
from pathlib import Path

from repro.analysis.lint import run_lint
from repro.core.snic import _measure
from repro.crypto.rsa import _sign
from repro.obs import auditlog, tracer
from repro.obs.bench import cell_scope, isolate
from repro.obs.cell import CELL, CellState
from repro.obs.interference import get_accountant
from repro.obs.metrics import get_registry
from repro.scenario.build import build_scenario
from repro.scenario.matrix import cell_spec, default_axes, expand, run_cell
from repro.scenario.matrix import main as matrix_main

SRC = Path(__file__).resolve().parent.parent / "src"


def state_of(value):
    """``value``'s state as comparable plain data: atoms as they are,
    containers element by element, objects by their ``__dict__`` or
    slots."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (list, tuple)):
        return [state_of(item) for item in value]
    if isinstance(value, deque):
        return ["deque", value.maxlen, [state_of(item) for item in value]]
    if isinstance(value, dict):
        return [(state_of(k), state_of(v)) for k, v in value.items()]
    if isinstance(value, itertools.count):
        return repr(value)
    fields = getattr(value, "__dict__", None)
    if fields is None:
        fields = {name: getattr(value, name)
                  for name in getattr(type(value), "__slots__", ())}
    return [type(value).__name__,
            [(name, state_of(item)) for name, item in sorted(fields.items())]]


def dirty_every_field():
    """Write something into each field of the current cell state."""
    registry = get_registry()
    registry.counter("stale_total", tenant=1).inc(3)
    registry.instance_label("l2")
    tracer.enable_tracing(clock=lambda: 5.0)
    tracer.get_tracer().instant("stale", tenant=1)
    auditlog.enable_audit_log(clock=lambda: 6.0)
    auditlog.get_audit_log().append("stale.record", tenant=1)
    get_accountant().blame("bus", victim=1, culprit=2, wait_ns=4.0)
    CELL.kernel.events_executed += 7
    CELL.kernel.sim_ns_advanced += 70


class TestIsolateInstallsFreshState:
    def test_every_field_is_a_new_object_in_fresh_state(self):
        fields = CellState.__slots__
        assert set(fields) == {"registry", "tracer", "audit", "accountant",
                               "kernel"}
        dirty_every_field()
        before = {name: getattr(CELL, name) for name in fields}
        isolate()
        fresh = CellState()
        for name in fields:
            current = getattr(CELL, name)
            assert current is not before[name], name
            assert state_of(current) == state_of(getattr(fresh, name)), name

    def test_fields_are_wired_to_their_own_cell(self):
        isolate()
        assert auditlog.get_audit_log() is CELL.audit
        assert tracer.get_tracer() is CELL.tracer
        assert CELL.accountant._registry is CELL.registry


class TestNoStateOutsideTheCell:
    def test_src_repro_has_no_snic010_finding(self):
        findings, _code = run_lint(rules=["SNIC010"])
        assert [(f.key, f.message) for f in findings] == []


def _two_cells():
    """Two quick matrix cells that differ on every axis: a two-tenant
    commodity FCFS cell under bus babble and a four-tenant S-NIC
    temporal cell under DMA errors."""
    cells = {(c.nic_model, c.tenant_count, c.fault_class, c.arbiter): c
             for c in expand(default_axes(quick=True), base_seed=7)}
    return (cells[("commodity", 2, "bus_babble", "fcfs")],
            cells[("snic", 4, "dma_error", "temporal")])


_ALONE = """
import json, sys
from dataclasses import asdict
from repro.scenario.matrix import MatrixCell, run_cell
cell = MatrixCell(**json.loads(sys.argv[1]))
print(json.dumps(asdict(run_cell(cell, quick=True)), sort_keys=True))
"""


def _alone(cell):
    """``cell``'s record run alone, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _ALONE, json.dumps(asdict(cell))],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    return json.loads(out.stdout)


class TestCellsDoNotLeak:
    def test_back_to_back_cells_match_each_run_alone(self):
        first, second = _two_cells()
        alone = [_alone(first), _alone(second)]
        assert alone[0]["status"] == alone[1]["status"] == "ok"
        isolate()
        together = [asdict(run_cell(first, quick=True)),
                    asdict(run_cell(second, quick=True)),
                    asdict(run_cell(first, quick=True))]
        assert json.loads(json.dumps(together, sort_keys=True)) \
            == [alone[0], alone[1], alone[0]]

    def test_finished_cell_registry_is_collected(self):
        first, _second = _two_cells()
        with cell_scope():
            registry = weakref.ref(get_registry())
            with build_scenario(cell_spec(first, quick=True)) as built:
                built.drive(quick=True)
            del built
        gc.collect()
        assert registry() is None


_QUICK_MATRIX = ["--quick", "--seed", "7", "--format", "json"]


class TestProcessMemosAreInvisible:
    def test_quick_matrix_twice_in_process_equals_a_fresh_interpreter(self):
        fresh = subprocess.run(
            [sys.executable, "-m", "repro", "matrix", *_QUICK_MATRIX],
            check=True, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
        reports = []
        for _ in range(2):
            measured, signed = _measure.cache_info(), _sign.cache_info()
            out = io.StringIO()
            assert matrix_main(_QUICK_MATRIX, stream=out) == 0
            reports.append(out.getvalue())
        # The second run found every launch and signature in the memos.
        assert _measure.cache_info().misses == measured.misses
        assert _measure.cache_info().hits > measured.hits
        assert _sign.cache_info().misses == signed.misses
        assert _sign.cache_info().hits > signed.hits
        assert reports == [fresh, fresh]
