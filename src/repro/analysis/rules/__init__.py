"""The pluggable S-NIC rule catalog.

Each module contributes :class:`~repro.analysis.lint.Rule` subclasses;
:func:`all_rules` is the registry ``python -m repro lint`` runs.  Add a
rule by defining the class and listing it in ``_RULE_CLASSES`` — the
engine, formats, and suppression machinery need no changes.

Whole-program rules (:class:`~repro.analysis.lint.ProgramRule`
subclasses, which need every module at once) are registered separately
in :func:`all_program_rules`; the engine runs both kinds in one pass.
One rule per hazard: SNIC001 isolation bypass, SNIC002 nondeterminism,
SNIC004 untagged telemetry, SNIC005 float sim-time, SNIC008 unwitnessed
security primitives, SNIC010 module state that outlives a cell.
"""

from __future__ import annotations

from typing import List, Type

from repro.analysis.lint import ProgramRule, Rule
from repro.analysis.rules.audit_trail import AuditTrailRule
from repro.analysis.rules.isolation import IsolationBypassRule
from repro.analysis.rules.nondeterminism import (
    FloatSimTimeRule,
    NondeterminismRule,
)
from repro.analysis.rules.telemetry import UntaggedTelemetryRule

_RULE_CLASSES: List[Type[Rule]] = [
    IsolationBypassRule,
    NondeterminismRule,
    UntaggedTelemetryRule,
    FloatSimTimeRule,
    AuditTrailRule,
]


def all_rules() -> List[Rule]:
    return [cls() for cls in _RULE_CLASSES]


def all_program_rules() -> List[ProgramRule]:
    # Imported lazily: the escape analysis is only needed when a lint
    # pass runs, not whenever the catalog is imported.
    from repro.analysis.rules.shared_state import SharedMutableStateRule

    return [SharedMutableStateRule()]
