"""SNIC003 — event callbacks mutating module-global state.

A static race approximation over the ``schedule()`` call graph.  The
kernel runs callbacks one at a time, but module-global mutations from
callbacks couple *independent simulations in the same process*: two
back-to-back scenarios (the bench harness, the determinism checker's
double run) observe each other through the shared module state, which is
exactly the cross-run interference the isolation story forbids.  State a
callback touches must be kernel-mediated — reachable from the simulator
or the component the event belongs to — or one of the sanctioned
process-wide observability singletons with an explicit reset.

Approximation (documented, deliberately shallow): the rule resolves the
callback argument of every ``schedule()``/``schedule_at()``/``every()``
call (:data:`~repro.analysis.lint.SCHEDULE_METHODS`) — a
lambda (inspecting calls of ``self.<method>``/bare functions one hop
deep) or a direct function reference — and flags ``global X`` writes in
the resolved function bodies.  Deep transitive mutation needs the
runtime sanitizer, not the linter.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.analysis.lint import Finding, ModuleSource, Rule, is_schedule_call


def _global_writes(fn: ast.AST) -> List[ast.Global]:
    """``global`` declarations whose names the function stores to."""
    declared: List[ast.Global] = [
        n for n in ast.walk(fn) if isinstance(n, ast.Global)]
    if not declared:
        return []
    stored: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stored.add(node.id)
        elif isinstance(node, ast.AugAssign) and \
                isinstance(node.target, ast.Name):
            stored.add(node.target.id)
    return [g for g in declared if set(g.names) & stored]


class CallbackGlobalMutationRule(Rule):
    rule_id = "SNIC003"
    title = "event callback mutates module-global state"
    rationale = ("kernel-scheduled callbacks writing module globals couple "
                 "independent simulations in one process (bench harness, "
                 "determinism double-runs) — a static race approximation")
    hint = ("carry the state on the simulator/component the event belongs "
            "to, or use the observability singletons which have explicit "
            "reset() hooks")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        functions: Dict[str, ast.AST] = {}
        methods: Dict[str, ast.AST] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        methods.setdefault(item.name, item)

        reported: Set[int] = set()
        for node in ast.walk(module.tree):
            if not (is_schedule_call(node) and len(node.args) >= 2):
                continue
            for target in self._resolve_callbacks(
                    node.args[1], functions, methods):
                for decl in _global_writes(target):
                    key = id(decl)
                    if key in reported:
                        continue
                    reported.add(key)
                    yield self.finding(
                        module, decl,
                        f"scheduled callback writes module global(s) "
                        f"{', '.join(decl.names)} without kernel "
                        f"mediation")

    def _resolve_callbacks(self, callback: ast.AST,
                           functions: Dict[str, ast.AST],
                           methods: Dict[str, ast.AST]) -> List[ast.AST]:
        """The function bodies one hop behind a schedule() argument."""
        targets: List[ast.AST] = []
        if isinstance(callback, ast.Lambda):
            targets.append(callback)
            for node in ast.walk(callback.body):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id in functions:
                    targets.append(functions[func.id])
                elif isinstance(func, ast.Attribute) and \
                        isinstance(func.value, ast.Name) and \
                        func.value.id == "self" and func.attr in methods:
                    targets.append(methods[func.attr])
        elif isinstance(callback, ast.Name) and callback.id in functions:
            targets.append(functions[callback.id])
        elif isinstance(callback, ast.Attribute) and \
                isinstance(callback.value, ast.Name) and \
                callback.value.id == "self" and callback.attr in methods:
            targets.append(methods[callback.attr])
        return targets
