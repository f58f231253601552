"""Whole-program analysis over the S-NIC reproduction: rule SNIC010.

The per-module lint rules (SNIC001–008) check one AST at a time; this
subpackage holds the one rule that needs every module at once, and
``python -m repro lint`` runs it in the same pass (DESIGN.md §1.10):

* :mod:`repro.analysis.dataflow.graph` — the module/import graph built
  purely from the ASTs;
* :mod:`repro.analysis.dataflow.escape` — module-level state escape
  analysis: every global, with its cross-module aliases resolved to
  the object they name, is cell-safe or cell-unsafe (rule
  **SNIC010**: a module-level mutable a cell writes that is not part
  of the cell state :mod:`repro.obs.cell` owns).
"""

from __future__ import annotations

from repro.analysis.dataflow.escape import EscapeAnalysis, ModuleStateInfo
from repro.analysis.dataflow.graph import ProgramGraph

__all__ = [
    "EscapeAnalysis",
    "ModuleStateInfo",
    "ProgramGraph",
]
