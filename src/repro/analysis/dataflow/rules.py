"""The whole-program rules: SNIC009 (cross-tenant taint) and SNIC010
(module-level state outside the cell state).

Both are :class:`repro.analysis.lint.ProgramRule` subclasses so they
plug into the same registry, formats, and ``# snic: ignore[...]``
suppression machinery as SNIC001–008; they run under
``python -m repro dataflow`` because they need every module at once.
Each finding carries a stable ``key`` fingerprint (qualnames, not line
numbers) that the committed baseline matches against.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from repro.analysis.dataflow.escape import EscapeAnalysis, ModuleStateInfo
from repro.analysis.dataflow.graph import ProgramGraph
from repro.analysis.dataflow.taint import TaintAnalysis, TaintFlow
from repro.analysis.lint import Finding, ModuleSource, ProgramRule


def _module_for(modules: Sequence[ModuleSource],
                modname: str) -> ModuleSource:
    for module in modules:
        if module.modname == modname:
            return module
    raise KeyError(modname)


class CrossTenantFlowRule(ProgramRule):
    rule_id = "SNIC009"
    title = "unmediated cross-tenant dataflow (taint source reaches a " \
            "sink without a mediation choke point)"
    rationale = ("§4.1–§4.2: every path from one tenant's state to "
                 "another must pass through NIC-OS denylist walks, "
                 "attestation verdicts, locked-TLB translation, "
                 "DMA-window checks, or scrub — the mediated-sharing "
                 "claim, checked interprocedurally")
    hint = ("route the flow through a mediation choke point "
            "(NICOS.os_read/os_write, DenylistPageTable.check, "
            "TLB.translate, PacketSchedulerUnit.check_dma, or the "
            "scrub path), or suppress with # snic: ignore[SNIC009] "
            "plus the mediation argument")

    def check_program(
            self, modules: Sequence[ModuleSource]) -> Iterator[Finding]:
        graph = ProgramGraph.build(modules)
        for flow in TaintAnalysis(graph).run():
            sink = flow.sink_site
            module = _module_for(modules, sink.modname)
            source = flow.source_site
            yield Finding(
                rule=self.rule_id,
                message=(
                    f"{flow.sink_describe} receives tenant-tainted data "
                    f"with no mediation on the path: "
                    f"{flow.chain_text()} (source: "
                    f"{flow.source_describe} at "
                    f"{source.modname}:{source.lineno})"),
                path=str(module.path),
                line=sink.lineno,
                col=sink.col,
                hint=self.hint,
                key=f"{flow.chain[0]}->{sink.name}"
                    f"<-{flow.chain[-1]}:{source.name}",
            )


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
        graph = ProgramGraph.build(modules)
        infos = EscapeAnalysis(graph).run()
        for info in infos:
            if info.cell_safe:
                continue
            module = _module_for(modules, info.modname)
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
                path=str(module.path),
                line=info.lineno,
                col=info.col,
                hint=self.hint,
                key=info.qualname,
            )


def analyze(modules: Sequence[ModuleSource]) -> Dict[str, object]:
    """One-stop analysis for the CLI: graph, flows, state inventory."""
    graph = ProgramGraph.build(modules)
    flows: List[TaintFlow] = TaintAnalysis(graph).run()
    infos: List[ModuleStateInfo] = EscapeAnalysis(graph).run()
    return {"graph": graph, "flows": flows, "state": infos}
