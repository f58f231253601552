"""Whole-program dataflow analysis over the S-NIC reproduction.

The per-module lint rules (SNIC001–008) check one AST at a time; this
subpackage is the interprocedural layer that proves — approximately,
with documented unsoundness (DESIGN.md §1.10) — the paper's central
structural claim: **every path from one tenant's state to another
passes through a mediation choke point** (NIC-OS denylist walks,
attestation verdicts, scrub).  Three cooperating analyses:

* :mod:`repro.analysis.dataflow.graph` — module/import graph plus an
  approximate call graph built purely from the ASTs;
* :mod:`repro.analysis.dataflow.taint` — interprocedural taint with
  sources = tenant-owned data (page bytes, ring frames, port drains),
  sanitizers = the PR 7 audit-trail choke points, sinks = cross-tenant
  emission points; unmediated source→sink paths are rule **SNIC009**;
* :mod:`repro.analysis.dataflow.escape` — module-level state escape
  analysis: every global, with its cross-module aliases resolved to
  the object they name, is cell-safe or cell-unsafe (rule
  **SNIC010**: a module-level mutable a cell writes that is not part
  of the cell state :mod:`repro.obs.cell` owns).

Run it as ``python -m repro dataflow`` (text/json/github formats,
``# snic: ignore[...]`` suppressions shared with the lint engine, and a
committed ``DATAFLOW_BASELINE.json`` so pre-existing findings don't
block CI while still being inventoried).
"""

from __future__ import annotations

from repro.analysis.dataflow.escape import EscapeAnalysis, ModuleStateInfo
from repro.analysis.dataflow.graph import CallSite, FunctionInfo, ProgramGraph
from repro.analysis.dataflow.taint import TaintAnalysis, TaintFlow

__all__ = [
    "CallSite",
    "EscapeAnalysis",
    "FunctionInfo",
    "ModuleStateInfo",
    "ProgramGraph",
    "TaintAnalysis",
    "TaintFlow",
]
