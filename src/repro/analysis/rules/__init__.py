"""The pluggable S-NIC rule catalog.

Each module contributes :class:`~repro.analysis.lint.Rule` subclasses;
:func:`all_rules` is the registry ``python -m repro lint`` runs.  Add a
rule by defining the class and listing it in ``_RULE_CLASSES`` — the
engine, formats, and suppression machinery need no changes.

Whole-program rules (:class:`~repro.analysis.lint.ProgramRule`
subclasses, which need every module at once) are registered separately
in :func:`all_program_rules`; the engine runs both kinds in one pass.
"""

from __future__ import annotations

from typing import List, Type

from repro.analysis.lint import ProgramRule, Rule
from repro.analysis.rules.audit_trail import AuditTrailRule
from repro.analysis.rules.chaos_seed import ChaosSeedRule
from repro.analysis.rules.isolation import IsolationBypassRule
from repro.analysis.rules.nondeterminism import (
    FloatSimTimeRule,
    NondeterminismRule,
)
from repro.analysis.rules.races import CallbackGlobalMutationRule
from repro.analysis.rules.scenario_seed import ScenarioSeedRule
from repro.analysis.rules.telemetry import UntaggedTelemetryRule

_RULE_CLASSES: List[Type[Rule]] = [
    IsolationBypassRule,
    NondeterminismRule,
    CallbackGlobalMutationRule,
    UntaggedTelemetryRule,
    FloatSimTimeRule,
    ChaosSeedRule,
    ScenarioSeedRule,
    AuditTrailRule,
]


def all_rules() -> List[Rule]:
    return [cls() for cls in _RULE_CLASSES]


def all_program_rules() -> List[ProgramRule]:
    # Imported lazily: the dataflow package imports repro.analysis.lint,
    # which imports this module for default_rules().
    from repro.analysis.dataflow.rules import SharedMutableStateRule

    return [SharedMutableStateRule()]
