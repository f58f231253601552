"""The whole-program rule SNIC010: module-level state outside the cell
state.

It is a :class:`repro.analysis.lint.ProgramRule`, so ``python -m repro
lint`` runs it in the same pass, formats and ``# snic: ignore[...]``
suppression machinery as SNIC001–008; it sees every module at once
because a mutable's writers may sit in other modules.  Each finding
carries a stable ``key`` fingerprint (the object's qualname).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.analysis.dataflow.escape import EscapeAnalysis
from repro.analysis.dataflow.graph import ProgramGraph
from repro.analysis.lint import Finding, ModuleSource, ProgramRule


class SharedMutableStateRule(ProgramRule):
    rule_id = "SNIC010"
    title = "module-level mutable a cell writes outside the cell state"
    rationale = ("§4.6: each network function's state is created at "
                 "launch and scrubbed at teardown; a cell (one "
                 "simulated NIC run) starts from fresh state because "
                 "isolate() replaces the CellState, and a module-level "
                 "mutable a cell writes outlives it, so a cell run "
                 "after another (in process or in a --shards worker) "
                 "no longer gives the records it gives alone")
    hint = ("keep the state on an object the cell builds, or make it a "
            "CellState field (repro.obs.cell) and read it as "
            "CELL.<field> at the call site, never through a module "
            "alias; suppress with # snic: ignore[SNIC010] only for "
            "state no report can see (a deterministic per-process "
            "cache)")

    def check_program(
            self, modules: Sequence[ModuleSource]) -> Iterator[Finding]:
        paths = {module.modname: str(module.path) for module in modules}
        for info in EscapeAnalysis(ProgramGraph.build(modules)).run():
            if info.cell_safe:
                continue
            evidence = "; ".join(info.reasons[:3])
            more = len(info.reasons) - 3
            if more > 0:
                evidence += f"; +{more} more"
            alias_note = ""
            if info.aliases:
                alias_note = (" (aliased by "
                              + ", ".join(info.aliases) + ")")
            yield Finding(
                rule=self.rule_id,
                message=(
                    f"module-level {info.kind} {info.name!r} outlives "
                    f"the cell: {evidence}{alias_note}"),
                path=paths[info.modname],
                line=info.lineno,
                col=info.col,
                hint=self.hint,
                key=info.qualname,
            )
