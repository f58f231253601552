"""SNIC011 — live simulation objects crossing a shard boundary.

The shard engine (:mod:`repro.shard`) deals whole experiment cells to
worker processes, and it is only correct because *everything*
crossing the process boundary is plain data: immutable specs and run
flags going out, bench records and report blocks coming back.  A live
object handed to a worker pool breaks both halves of the design:

* **isolation** — a pickled ``SNIC``/``Simulator``/``MetricsRegistry``
  drags its whole object graph (other tenants' NFs, the host memory,
  process-global singletons) into another worker's address space, the
  exact cross-tenant sharing the process boundary exists to forbid;
* **determinism** — most of those objects do not survive pickling at
  all (bound methods, heaps of closures), and the ones that do arrive
  as *copies* whose mutations are silently lost, so reports drift with
  the worker count.

Scope: modules or functions with a ``shard`` name component.  Sinks:
``.submit()``/``.map()`` on a pool/executor receiver.  Flagged: a bare
name or attribute chain with a live-simulation-object component
(``sim``, ``runtime``, ``snic``, ``registry``, ``tracer``, ...) passed
straight into a sink — the fix is always the same: serialize first
(``to_dict()``, ``as_dict()``, ``jsonable(...)``), which reads as a
*call* and is therefore never flagged.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List

from repro.analysis.lint import (
    Finding,
    ModuleSource,
    Rule,
    call_name,
    dotted_name,
    receiver_token,
)

#: A name is shard-scoped when one of its ``.``/``_``-separated
#: components is ``shard``/``shards`` (component matching, as in
#: SNIC006 — substring matching would drag in innocents).
_SCOPE_COMPONENT = re.compile(r"^shards?$")

#: Receiver tokens that read as a worker pool.
_POOL_TOKENS = ("pool", "executor")

#: Sink method names on a pool receiver.
_SUBMIT_METHODS = {"submit", "map"}

#: Name components that read as live simulation state.  Serialized
#: spellings (``registry.snapshot()``, ``spec.to_dict()``) are calls
#: and never reach this check.
_LIVE_COMPONENTS = {
    "sim", "simulator", "runtime", "built", "kernel",
    "snic", "nic", "nicos", "hw",
    "memory", "hostmem", "mmu", "dma", "bus", "cache", "dram",
    "registry", "tracer", "auditlog", "flight",
    "arbiter", "injector", "driver", "scheduler",
}


def _name_in_scope(name: str) -> bool:
    return any(_SCOPE_COMPONENT.match(part)
               for part in re.split(r"[._]+", name) if part)


def _components(name: str) -> List[str]:
    return [part for part in re.split(r"[._]+", name.lower()) if part]


def _live_names(expr: ast.AST) -> Iterator[ast.AST]:
    """Bare names / attribute chains under ``expr`` that read as live
    simulation objects.

    Call subtrees are pruned entirely: a call yields a *derived* value
    — that is exactly what the serializers (``snapshot``,
    ``to_dict``, ``jsonable``) look like, and what the fix-it hint
    tells people to write.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            continue
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = dotted_name(node)
            if name and any(part in _LIVE_COMPONENTS
                            for part in _components(name)):
                yield node
                continue  # one finding per chain, not per component
        stack.extend(ast.iter_child_nodes(node))


def _is_pool_submit(node: ast.Call) -> bool:
    if call_name(node) not in _SUBMIT_METHODS:
        return False
    token = receiver_token(node)
    return any(part in token for part in _POOL_TOKENS)


class ShardFrameRule(Rule):
    rule_id = "SNIC011"
    title = "live simulation object crossing a shard boundary"
    rationale = ("worker isolation and worker-count-invariant reports "
                 "both require pool tasks to carry serialized payloads "
                 "only; a pickled live hw object drags other tenants' "
                 "state into a foreign worker and mutates a silent copy")
    hint = ("serialize before it crosses: the object's to_dict()/"
            "as_dict()/snapshot(); pass the plain data to the pool")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        module_scoped = _name_in_scope(module.modname)
        stack = [(module.tree, module_scoped)]
        while stack:
            node, in_scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_scope = in_scope or _name_in_scope(node.name)
            if in_scope and isinstance(node, ast.Call) \
                    and _is_pool_submit(node):
                sink = f"{receiver_token(node)}.{call_name(node)}()"
                values = list(node.args)
                values += [kw.value for kw in node.keywords]
                for value in values:
                    for live in _live_names(value):
                        yield self.finding(
                            module, live,
                            f"live object {dotted_name(live)!r} "
                            f"passed into {sink} — shard tasks carry "
                            f"serialized payloads only")
            for child in ast.iter_child_nodes(node):
                stack.append((child, in_scope))
