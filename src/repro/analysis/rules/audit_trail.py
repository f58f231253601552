"""SNIC008 — security primitives without an audit record.

The audit log (:mod:`repro.obs.auditlog`) is only tamper-evident for
events that actually reach it.  A **security primitive without an audit
record** silently erodes the §4.6 witness trail this repo's post-mortem
bundles are built on: a function that scrubs pages (calls
``release_pages``/``zero_page``), a ``install``/``clear``/``lock``
method defined on a ``*TLB*`` class, or a function that raises
:class:`AttestationError` directly, whose body never calls
``.append(...)`` on the cell's audit log.  The repo's convention is
emission at the *choke point* (the TLB methods themselves, the scrub
loop, the attestation ``_reject`` helper), so callers stay clean while
every security action is witnessed exactly once.

Host-clock reads in forensics code are SNIC002's: it checks every
module, so bundles need no rule of their own.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.lint import (
    Finding,
    ModuleSource,
    Rule,
    dotted_name,
)

#: Scrub primitives: calling one of these attributes puts the calling
#: function in audit scope (it is destroying or recycling tenant state).
_SCRUB_CALLS = frozenset({"release_pages", "zero_page"})

#: Mutating methods that, when *defined* on a ``*TLB*`` class, must
#: emit (the choke-point convention: the method witnesses itself, its
#: callers don't have to).
_TLB_METHODS = frozenset({"install", "clear", "lock"})


def _is_tlb_class(name: str) -> bool:
    return "tlb" in name.lower()


def _attr_tail(node: ast.AST) -> str:
    """The final attribute component of a call target (``x.y.z`` → ``z``)."""
    return dotted_name(node).rpartition(".")[2]


def _emits_audit(func: ast.AST) -> bool:
    """Does the function body contain an audit-log ``.append(...)``
    (receiver has an ``audit`` component, e.g. ``CELL.audit.append``)?"""
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "append":
            receiver = dotted_name(node.func.value).lower()
            if any("audit" in part
                   for part in re.split(r"[._]+", receiver) if part):
                return True
    return False


def _raises_attestation_error(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            if _attr_tail(target) == "AttestationError":
                return True
    return False


def _calls_scrub(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and \
                _attr_tail(node.func) in _SCRUB_CALLS:
            return True
    return False


class AuditTrailRule(Rule):
    rule_id = "SNIC008"
    title = "security primitive without an audit record"
    rationale = ("the hash-chained audit log is only tamper-evident for "
                 "events that reach it: a scrub, TLB mutation, or "
                 "attestation rejection that never emits leaves a hole "
                 "in the §4.6 witness trail")
    hint = ("append the action to the audit log — "
            "`if CELL.audit.enabled: CELL.audit.append(...)` in the "
            "primitive itself (TLB method, scrub loop, attestation "
            "reject helper)")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        # Walk with the enclosing class name: it identifies TLB methods.
        stack = [(module.tree, "")]
        while stack:
            node, class_name = stack.pop()
            if isinstance(node, ast.ClassDef):
                class_name = node.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not _emits_audit(node):
                if _calls_scrub(node):
                    yield self.finding(
                        node=node, module=module,
                        message=(f"{node.name}() scrubs/releases "
                                 f"tenant pages without emitting an "
                                 f"audit record — the teardown "
                                 f"witness trail has a hole"))
                elif node.name in _TLB_METHODS and \
                        _is_tlb_class(class_name):
                    yield self.finding(
                        node=node, module=module,
                        message=(f"{class_name}.{node.name}() mutates "
                                 f"TLB state without emitting an "
                                 f"audit record — TLB installs/"
                                 f"clears must be witnessed at the "
                                 f"choke point"))
                elif _raises_attestation_error(node):
                    yield self.finding(
                        node=node, module=module,
                        message=(f"{node.name}() raises "
                                 f"AttestationError without emitting "
                                 f"an audit verdict — rejections "
                                 f"must be witnessed"))
            for child in ast.iter_child_nodes(node):
                stack.append((child, class_name))
