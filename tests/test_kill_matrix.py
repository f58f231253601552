"""The kill matrix: seeded isolation leaks against the isolation checkers.

S-NIC's §4 guarantee rests on a few mediation points: denylist walks,
locked TLBs, per-bank DMA windows, scrub at teardown, the temporal bus
and the way-partitioned L2.  Each runtime row below seeds one leak into
the running program as an in-process patch (``monkeypatch``); where the
leak alone does nothing, the row adds the attacker action that
exercises it.  Each row then runs every isolation verdict and asserts
the exact set that kills it:

* ``isosan`` — the row's attacker action, a probe packet and a
  teardown/relaunch churn under the IsoSan runtime sanitizer (killed
  iff IsoSan records a violation);
* ``harness`` — the differential noninterference harness,
  ``check_noninterference(10, 40)``;
* ``audit`` — the ``run_audit(quick=True)`` verdict;
* ``chaos`` — the ``run_chaos(quick=True, matrix=True)`` verdict;
* ``gates`` — the accountant gates: the quick seed-7 matrix has no
  error cell and zero ``cross_tenant_wait_ns`` in every snic x
  temporal cell, and a 32-tenant temporal SLO cell passes every tenant
  with zero pages;
* ``cell`` — the cell contract's in-process checks
  (``tests/test_cell_contract.py`` without its fresh interpreters,
  plus the first cell re-run in process after the second);
* two targeted tier-1 tests, named by their test function.

A verdict that raises counts as a kill.  Digest pins and
fresh-interpreter comparisons are not columns: an in-process patch
cannot reach a fresh interpreter, so their failures are not kills.

The static rows seed a hazard as source, from the lint fixtures, with
every lint rule as a column: each hazard has exactly one rule that
reports it.  Dropping or weakening any checker shows up here as a row
whose killer set changes.  EXPERIMENTS.md renders the same table.
"""

from __future__ import annotations

import ast
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Optional

import pytest

from repro.analysis.isosan import sanitized
from repro.analysis.lint import default_program_rules, default_rules, run_lint
from repro.core.nic_os import NICOS
from repro.core.noninterference import _build_system, check_noninterference
from repro.core.snic import NFConfig, SNIC
from repro.core.vpp import PacketSchedulerUnit, VirtualPacketPipeline
from repro.faults.chaos import run_chaos
from repro.hw.bus import TemporalPartitioningArbiter
from repro.hw.dma import DMABank
from repro.hw.memory import HostMemory, PhysicalMemory
from repro.hw.packet_io import RingFullError
from repro.net.packet import Packet
from repro.obs import bench
from repro.obs.audit import run_audit
from repro.obs.cell import CellState
from repro.obs.scorecard import run_scorecard
from repro.scenario.matrix import run_cell, run_matrix

# Modules, not their Test classes: a class imported here would be
# collected and run a second time.
from tests import test_cell_contract as cell_contract
from tests import test_core_isolation as core_isolation

pytestmark = pytest.mark.no_isosan  # the isosan column installs it itself

MB = 1024 * 1024
FIXTURES = Path(__file__).parent / "fixtures"

#: A test's failure: an assertion, a pytest.raises that saw nothing,
#: or any error on the way.
_FAILURES = (Exception, pytest.fail.Exception)


# ----------------------------------------------------------------------
# The columns: each returns True when the verdict passes
# ----------------------------------------------------------------------

Attack = Callable[[SNIC, NICOS, object, object], object]


def _isosan(attack: Optional[Attack]) -> bool:
    with sanitized() as san:
        snic, nic_os, victim, attacker = _build_system(7)
        steps = [
            lambda: attack(snic, nic_os, victim, attacker) if attack else None,
            lambda: (snic.rx_port.wire_arrival(Packet.make(
                "9.9.9.9", "10.1.2.3", src_port=1, dst_port=2)),
                snic.process_ingress()),
            # Churn: both tenants leave and one fresh tenant takes the
            # freed pages.
            lambda: (nic_os.NF_destroy(victim.nf_id),
                     nic_os.NF_destroy(attacker.nf_id),
                     nic_os.NF_create(NFConfig(
                         name="fresh", core_ids=(0, 1),
                         memory_bytes=8 * MB))),
        ]
        for step in steps:
            try:
                step()
            except _FAILURES:
                pass  # a mediation check refusing the step is not IsoSan's
        return not san.violations


def _harness() -> bool:
    return not check_noninterference(10, 40)


def _audit() -> bool:
    return bool(run_audit(quick=True)["verdict"]["pass"])


def _chaos() -> bool:
    return bool(run_chaos(quick=True, matrix=True)["verdict"]["pass"])


def _gates() -> bool:
    matrix = run_matrix(quick=True, seed=7)
    assert matrix["n_error"] == 0
    for entry in matrix["cells"].values():
        cell = entry["cell"]
        if (cell["nic_model"], cell["arbiter"]) == ("snic", "temporal"):
            assert entry["record"]["outputs"]["cross_tenant_wait_ns"] == 0.0
    slo = run_scorecard(n_tenants=32, seed=7, quick=True,
                        arbiters=("temporal",))
    (row,) = slo["summary"]
    return row["n_fail"] == 0 and row["n_pass"] == 32 and row["pages"] == 0


def _cell() -> bool:
    fresh = cell_contract.TestIsolateInstallsFreshState()
    fresh.test_every_field_is_a_new_object_in_fresh_state()
    fresh.test_fields_are_wired_to_their_own_cell()
    cell_contract.TestCellsDoNotLeak().test_finished_cell_registry_is_collected()
    bench.isolate()
    first, second = cell_contract._two_cells()
    records = [asdict(run_cell(cell, quick=True))
               for cell in (first, second, first)]
    return records[0] == records[2] and records[0]["status"] == "ok"


def _nic_os() -> NICOS:
    """The ``nic_os`` fixture of ``tests/test_core_isolation.py``."""
    return NICOS(SNIC(n_cores=4, dram_bytes=256 * MB, key_seed=7))


def _cache_probe_test() -> bool:
    core_isolation.TestCacheIsolation().test_hard_partition_blocks_probe(
        _nic_os())
    return True


def _os_read_test() -> bool:
    core_isolation.TestManagementCoreBlocked() \
        .test_os_cannot_read_function_pages(_nic_os())
    return True


def killers(attack: Optional[Attack]) -> FrozenSet[str]:
    """Every verdict that fails (or raises) on the program as it is now."""
    columns: Dict[str, Callable[[], bool]] = {
        "isosan": lambda: _isosan(attack),
        "harness": _harness,
        "audit": _audit,
        "chaos": _chaos,
        "gates": _gates,
        "cell": _cell,
        "test_hard_partition_blocks_probe": _cache_probe_test,
        "test_os_cannot_read_function_pages": _os_read_test,
    }
    killed = set()
    for name, passes in columns.items():
        bench.isolate()
        try:
            ok = passes()
        except _FAILURES:
            ok = False
        if not ok:
            killed.add(name)
    bench.isolate()
    return frozenset(killed)


# ----------------------------------------------------------------------
# The seeded leaks
# ----------------------------------------------------------------------

def shared_bus_cursor(mp: pytest.MonkeyPatch) -> None:
    """The temporal arbiter serves every domain from one cursor."""
    request = TemporalPartitioningArbiter.request

    def leaky(self, client, n_bytes, now_ns):
        self._cursor[client] = max(self._cursor.values())
        return request(self, client, n_bytes, now_ns)

    mp.setattr(TemporalPartitioningArbiter, "request", leaky)


def shared_l2(mp: pytest.MonkeyPatch) -> None:
    """``snic.l2.share()`` after every repartition."""
    repartition = SNIC._repartition_cache

    def leaky(self):
        repartition(self)
        self.l2.share()

    mp.setattr(SNIC, "_repartition_cache", leaky)


def unscrubbed_teardown(mp: pytest.MonkeyPatch) -> None:
    """Teardown releases a tenant's pages with ``scrub=False``."""
    release = PhysicalMemory.release_pages
    mp.setattr(PhysicalMemory, "release_pages",
               lambda self, owner, scrub=True: release(self, owner,
                                                       scrub=False))


def dma_window_skipped(mp: pytest.MonkeyPatch) -> None:
    """No DMA window check, in the bank or in the VPP scheduler."""
    mp.setattr(DMABank, "_check", lambda self, *args: None)
    mp.setattr(PacketSchedulerUnit, "check_dma", lambda self, *args: None)


def foreign_dma(snic, nic_os, victim, attacker):
    """The attacker's DMA bank writes into the victim's extent."""
    bank = snic.dma.bank_for_core(attacker.core_ids[0])
    target = snic.record(victim.nf_id).extent_base
    bank.to_nic(HostMemory(1 * MB), snic.memory, 0, target, 64)


def denylist_skipped(mp: pytest.MonkeyPatch) -> None:
    """The NIC OS's denylist walk is skipped."""
    mp.setattr(NICOS, "_check_denylist", lambda self, paddr, size: None)


def nic_os_read(snic, nic_os, victim, attacker):
    """The management core reads a live function's pages."""
    nic_os.attempt_function_state_read(victim.nf_id)


def classify_next_vpp(mp: pytest.MonkeyPatch) -> None:
    """``SNIC.classify`` returns the live VPP after the matching one."""
    classify = SNIC.classify

    def leaky(self, packet):
        nf_id = classify(self, packet)
        live = self.live_functions
        return None if nf_id is None \
            else live[(live.index(nf_id) + 1) % len(live)]

    mp.setattr(SNIC, "classify", leaky)


def registry_kept(mp: pytest.MonkeyPatch) -> None:
    """``isolate()`` keeps the previous cell's registry (and the
    accountant that writes into it)."""
    install = CellState.install

    def leaky(self, fresh):
        fresh.registry, fresh.accountant = self.registry, self.accountant
        install(self, fresh)

    mp.setattr(CellState, "install", leaky)


def frame_copied(mp: pytest.MonkeyPatch) -> None:
    """``process_ingress`` also pushes each delivered frame into another
    live VPP's RX ring (silently: a full ring drops the copy)."""
    ingress, deliver = SNIC.process_ingress, VirtualPacketPipeline.deliver
    live = []

    def leaky_ingress(self):
        live[:] = [self.record(nf_id).vpp for nf_id in self.live_functions]
        try:
            return ingress(self)
        finally:
            live.clear()

    def leaky_deliver(vpp, packet):
        slot = deliver(vpp, packet)
        other = next((v for v in live if v is not vpp), None)
        if other is not None:
            try:
                other.rx_ring.push(packet.to_bytes())
            except RingFullError:
                pass
        return slot

    mp.setattr(SNIC, "process_ingress", leaky_ingress)
    mp.setattr(VirtualPacketPipeline, "deliver", leaky_deliver)


#: One row per seeded leak: (patch, attacker action, exact killers).
ROWS = {
    "unpatched": (None, None, frozenset()),
    "shared-bus-cursor": (shared_bus_cursor, None,
                          frozenset({"harness", "audit", "chaos"})),
    # The harness kills this row only because the victim warms its
    # probe lines before the attacker primes their sets.
    "shared-l2": (shared_l2, None,
                  frozenset({"harness", "audit",
                             "test_hard_partition_blocks_probe"})),
    "unscrubbed-teardown": (unscrubbed_teardown, None,
                            frozenset({"isosan", "chaos"})),
    "dma-window-skipped": (dma_window_skipped, foreign_dma,
                           frozenset({"isosan"})),
    # No runtime verdict sees a skipped denylist walk: the read is an
    # unattributed access, which IsoSan lets through.
    "denylist-skipped": (denylist_skipped, nic_os_read,
                         frozenset({"test_os_cannot_read_function_pages"})),
    # The quick matrix passes; only the SLO cell among the gates fails.
    "classify-next-vpp": (classify_next_vpp, None,
                          frozenset({"harness", "audit", "gates"})),
    "registry-kept": (registry_kept, None,
                      frozenset({"audit", "chaos", "gates", "cell"})),
    "frame-copied": (frame_copied, None, frozenset({"harness", "audit"})),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_runtime_row(row, monkeypatch):
    patch, attack, expected = ROWS[row]
    if patch is not None:
        patch(monkeypatch)
    assert killers(attack) == expected


# ----------------------------------------------------------------------
# Static rows: the leak is source, and the kept rules are the columns
# ----------------------------------------------------------------------

STATIC_RULES = tuple(rule.rule_id for rule in
                     [*default_rules(), *default_program_rules()])

LINT_FIXTURE = FIXTURES / "lint_violations.py"

#: (fixture, top-level names that make up the hazard, exact killers).
STATIC_ROWS = {
    # SNIC001 alone catches a raw PhysicalMemory access outside the
    # mediation layers on a path that no workload drives, or that runs
    # outside an attributed context: IsoSan checks only a core's
    # loads/stores and a DMA bank's transfers, so it lets an
    # unattributed read through (the denylist-skipped row).
    "raw-memory-access": (LINT_FIXTURE, ("isolation_bypass",),
                          frozenset({"SNIC001"})),
    # SNIC010 alone catches a module-level mutable that a cell writes:
    # it carries one cell's writes into the next cell in the same
    # process, which at runtime only a fresh-interpreter comparison
    # sees, and only for the cells it runs.
    "module-state-outlives-cell": (FIXTURES / "dataflow" / "state.py",
                                   ("SEEN", "remember"),
                                   frozenset({"SNIC010"})),
    # SNIC002 is the one determinism rule, with no name scope.
    "wall-clock": (LINT_FIXTURE, ("wall_clock_latency",),
                   frozenset({"SNIC002"})),
    "wall-clock-imported-bare": (LINT_FIXTURE, ("bare_imported_clock",),
                                 frozenset({"SNIC002"})),
    "unseeded-global-rng": (LINT_FIXTURE,
                            ("unseeded_jitter", "unseeded_numpy_stream"),
                            frozenset({"SNIC002"})),
    "set-order-into-schedule": (LINT_FIXTURE, ("schedule_from_set",),
                                frozenset({"SNIC002"})),
    "unseeded-fault-rng": (LINT_FIXTURE, ("chaos_fault_jitter",),
                           frozenset({"SNIC002"})),
    "wall-clock-in-scenario-code": (LINT_FIXTURE, ("scenario_report_stamp",),
                                    frozenset({"SNIC002"})),
    "wall-clock-in-forensics-code": (LINT_FIXTURE, ("flight_snapshot_stamp",),
                                     frozenset({"SNIC002"})),
    # SNIC010 reports every function that rebinds a module global,
    # scheduled or not, with or without a top-level binding.
    "callback-global": (LINT_FIXTURE,
                        ("PACKETS_SEEN", "on_packet", "arm_callback"),
                        frozenset({"SNIC010"})),
    "global-without-binding": (LINT_FIXTURE, ("reset_count",),
                               frozenset({"SNIC010"})),
    "untagged-telemetry": (LINT_FIXTURE,
                           ("emit_telemetry",
                            "emit_half_attributed_interference",
                            "emit_unattributable_slo"),
                           frozenset({"SNIC004"})),
    "float-sim-time": (LINT_FIXTURE, ("float_delay", "arm_sampler"),
                       frozenset({"SNIC005"})),
    # The scrub primitive's own page-ownership call carries its SNIC001
    # tag, as the real one in repro.hw.memory needs none.
    "unwitnessed-security-primitive": (LINT_FIXTURE,
                                       ("release_tenant_pages",
                                        "ShadowTLB", "reject_stale_quote"),
                                       frozenset({"SNIC008"})),
}


def _spans(path: Path, names) -> set:
    lines = set()
    for node in ast.parse(path.read_text()).body:
        targets = [node.name] if isinstance(
            node, (ast.FunctionDef, ast.ClassDef)) else [
            t.id for t in getattr(node, "targets", ())
            if isinstance(t, ast.Name)]
        if set(targets) & set(names):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


@pytest.mark.parametrize("row", sorted(STATIC_ROWS))
def test_static_row(row):
    fixture, names, expected = STATIC_ROWS[row]
    lines = _spans(fixture, names)
    findings, _code = run_lint([fixture], rules=list(STATIC_RULES))
    assert lines and frozenset(
        f.rule for f in findings if f.active and f.line in lines) == expected


def test_one_killer_per_static_row_and_site():
    assert all(len(killers) == 1 for _, _, killers in STATIC_ROWS.values())
    assert set(STATIC_RULES) == {
        rule for _, _, killers in STATIC_ROWS.values() for rule in killers}
    findings, _code = run_lint([FIXTURES])
    rules_at: Dict[tuple, set] = {}
    for f in findings:
        rules_at.setdefault((f.path, f.line, f.col), set()).add(f.rule)
    assert all(len(rules) == 1 for rules in rules_at.values())
