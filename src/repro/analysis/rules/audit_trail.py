"""SNIC008 — unwitnessed security primitives and wall-clock reads in
forensics code.

The audit log (:mod:`repro.obs.auditlog`) is only tamper-evident for
events that actually reach it.  Two code shapes silently erode the
§4.6 witness trail this repo's post-mortem bundles are built on:

* a **security primitive without an audit record** — a function that
  scrubs pages (calls ``release_pages``/``zero_page``), a
  ``install``/``clear``/``lock`` method defined on a ``*TLB*`` class,
  or a function that raises :class:`AttestationError` directly, whose
  body never calls ``.append(...)`` on the cell's audit log.  The
  repo's convention is emission at the *choke point* (the TLB methods
  themselves, the scrub loop, the attestation ``_reject`` helper), so
  callers stay clean while every security action is witnessed exactly
  once;
* a **wall-clock read in forensics scope** — ``time.time``,
  ``perf_counter``, ``datetime.now``, ... anywhere in
  audit-log / post-mortem (flight tail) code.  Bundles must be
  byte-identical across same-seed runs (CI ``cmp``s two chaos runs);
  one host timestamp breaks that gate forever.

SNIC007 owns the scenario/matrix scope's wall-clock contract; this
rule owns the forensics scope's, plus the emit-at-the-primitive
requirement.
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

#: Forensics scope by name component (module or function), matching
#: SNIC007's component discipline: split on ``.``/``_``, not substring.
_SCOPE_COMPONENT = re.compile(r"^(flight|auditlog|postmortem|forensics)$")

#: Wall-clock entry points (same catalog as SNIC007 — duplicated on
#: purpose so the two rules stay independently tunable).
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.strftime", "time.localtime",
    "time.gmtime", "time.ctime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "date.today",
})


def _name_in_scope(name: str) -> bool:
    return any(_SCOPE_COMPONENT.match(part)
               for part in re.split(r"[._]+", name) if part)


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
    title = ("security primitive without an audit record, or wall-clock "
             "read in forensics code")
    rationale = ("the hash-chained audit log is only tamper-evident for "
                 "events that reach it: a scrub, TLB mutation, or "
                 "attestation rejection that never emits leaves a hole "
                 "in the §4.6 witness trail; and one wall-clock value in "
                 "flight/postmortem code breaks the byte-identical "
                 "bundle contract CI enforces with cmp")
    hint = ("append the action to the audit log — "
            "`if CELL.audit.enabled: CELL.audit.append(...)` in the "
            "primitive itself (TLB method, scrub loop, attestation "
            "reject helper) — and keep time.time/perf_counter/datetime.now "
            "out of flight/auditlog/postmortem scope; timestamps come "
            "from the bound sim clock or deterministic ticks")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        module_scoped = _name_in_scope(module.modname)
        # Walk with (node, class_name, forensics_scope): class context
        # identifies TLB methods, the scope flag gates the wall-clock
        # check (a flight/postmortem-named function is in scope even
        # inside an unrelated module).
        stack = [(module.tree, "", module_scoped)]
        while stack:
            node, class_name, in_scope = stack.pop()
            if isinstance(node, ast.ClassDef):
                class_name = node.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_scope = in_scope or _name_in_scope(node.name)
                audited = _emits_audit(node)
                if not audited:
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
            if in_scope and isinstance(node, ast.Call) and \
                    dotted_name(node.func) in _WALL_CLOCK_CALLS:
                yield self.finding(
                    node=node, module=module,
                    message=(f"wall-clock read {dotted_name(node.func)}() "
                             f"in forensics code — post-mortem bundles "
                             f"must be byte-identical across same-seed "
                             f"runs"))
            for child in ast.iter_child_nodes(node):
                stack.append((child, class_name, in_scope))
