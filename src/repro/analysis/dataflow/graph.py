"""Module/import graph and approximate call graph over parsed ASTs.

Everything downstream (taint and escape analysis) consumes
:class:`ProgramGraph`.  Call resolution is deliberately approximate —
Python has no static types to lean on — and the approximations are
ranked by confidence (DESIGN.md §1.10 catalogues the unsoundness):

1. **local** — ``f(...)`` where ``f`` is defined in the same module;
2. **import** — ``f(...)`` / ``mod.f(...)`` resolved through ``import``
   and ``from … import`` statements to an analysed module;
3. **self** — ``self.m(...)`` inside class ``C`` resolved to ``C.m``
   when ``C`` defines it;
4. **by-name** (class-hierarchy-analysis style) — ``x.m(...)`` resolved
   to *every* analysed function named ``m``.  Sound for reachability
   (over-approximates callees), unsound for "no other callee exists".

Lambdas and nested functions are attributed to their enclosing
top-level function — a taint path does not get to hide inside a
closure.  Dynamic dispatch through ``getattr``, callbacks stored in
containers, and ``exec`` are invisible; the runtime IsoSan sanitizer
remains the backstop for those.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import ModuleSource, call_name, receiver_token

#: Pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"


@dataclass
class FunctionInfo:
    """One analysed function or method."""

    qualname: str           # "repro.hw.memory.PhysicalMemory.read"
    modname: str            # "repro.hw.memory"
    name: str               # "read"
    class_name: str         # "PhysicalMemory" ("" for plain functions)
    lineno: int
    node: ast.AST

    @property
    def is_module_body(self) -> bool:
        return self.name == MODULE_BODY


@dataclass
class CallSite:
    """One call expression inside a function body."""

    caller: str             # qualname of the enclosing function
    modname: str
    name: str               # bare callee name ("read", "deliver", ...)
    receiver: str           # last receiver component, lowercased
    lineno: int
    col: int
    node: ast.Call
    callees: Tuple[str, ...] = ()   # resolved qualnames, sorted
    resolution: str = "unresolved"  # local | import | self | by-name


@dataclass
class ProgramGraph:
    """The whole-program view every dataflow pass consumes."""

    modules: Dict[str, ModuleSource] = field(default_factory=dict)
    #: module -> analysed modules it imports (suffix-resolved).
    imports: Dict[str, Set[str]] = field(default_factory=dict)
    #: module -> {local alias -> imported module name} for module aliases.
    module_aliases: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: module -> {local name -> (source module, source name)} for
    #: ``from m import x [as y]`` bindings resolved to analysed modules.
    imported_names: Dict[str, Dict[str, Tuple[str, str]]] = \
        field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: bare function/method name -> sorted qualnames defining it.
    by_name: Dict[str, List[str]] = field(default_factory=dict)
    #: caller qualname -> call sites in source order.
    calls: Dict[str, List[CallSite]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, modules: Sequence[ModuleSource]) -> "ProgramGraph":
        graph = cls()
        for module in modules:
            graph.modules[module.modname] = module
        for module in modules:
            graph._index_imports(module)
            graph._index_functions(module)
        for name in graph.by_name:
            graph.by_name[name].sort()
        for module in modules:
            graph._index_calls(module)
        return graph

    def _resolve_module(self, dotted: str) -> Optional[str]:
        """Match an imported dotted name to an analysed module.

        Exact match first; otherwise suffix match (so fixture trees
        outside the ``repro`` package still form import edges).
        """
        if dotted in self.modules:
            return dotted
        tail = dotted.rsplit(".", 1)[-1]
        candidates = sorted(
            name for name in self.modules
            if name == tail or name.endswith("." + tail))
        return candidates[0] if len(candidates) == 1 else None

    def _index_imports(self, module: ModuleSource) -> None:
        edges = self.imports.setdefault(module.modname, set())
        aliases = self.module_aliases.setdefault(module.modname, {})
        names = self.imported_names.setdefault(module.modname, {})
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    target = self._resolve_module(item.name)
                    if target is None:
                        continue
                    edges.add(target)
                    local = item.asname or item.name.split(".")[0]
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                target = self._resolve_module(node.module)
                if target is None:
                    continue
                edges.add(target)
                for item in node.names:
                    if item.name == "*":
                        continue
                    names[item.asname or item.name] = (target, item.name)

    def _index_functions(self, module: ModuleSource) -> None:
        body = FunctionInfo(
            qualname=f"{module.modname}.{MODULE_BODY}",
            modname=module.modname, name=MODULE_BODY, class_name="",
            lineno=1, node=module.tree)
        self.functions[body.qualname] = body
        for node in module.tree.body if isinstance(module.tree, ast.Module) \
                else []:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, class_name="")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item,
                                  (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(module, item,
                                           class_name=node.name)

    def _add_function(self, module: ModuleSource, node: ast.AST,
                      class_name: str) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        prefix = f"{module.modname}.{class_name}." if class_name \
            else f"{module.modname}."
        info = FunctionInfo(
            qualname=prefix + node.name, modname=module.modname,
            name=node.name, class_name=class_name,
            lineno=node.lineno, node=node)
        self.functions[info.qualname] = info
        self.by_name.setdefault(node.name, []).append(info.qualname)

    # ------------------------------------------------------------------
    # Call indexing & resolution
    # ------------------------------------------------------------------

    def _index_calls(self, module: ModuleSource) -> None:
        claimed: Set[int] = set()
        infos = [info for info in self.functions.values()
                 if info.modname == module.modname
                 and not info.is_module_body]
        # Visit methods/functions first so nested calls attribute to
        # them, then sweep leftovers into the module body.
        for info in infos:
            sites = list(self._calls_under(module, info.node, info.qualname,
                                           claimed))
            if sites:
                self.calls.setdefault(info.qualname, []).extend(sites)
        body_qual = f"{module.modname}.{MODULE_BODY}"
        sites = list(self._calls_under(module, module.tree, body_qual,
                                       claimed))
        if sites:
            self.calls.setdefault(body_qual, []).extend(sites)

    def _calls_under(self, module: ModuleSource, root: ast.AST,
                     caller: str, claimed: Set[int]) -> Iterator[CallSite]:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call) or id(node) in claimed:
                continue
            claimed.add(id(node))
            site = CallSite(
                caller=caller, modname=module.modname,
                name=call_name(node), receiver=receiver_token(node),
                lineno=node.lineno, col=node.col_offset + 1, node=node)
            site.callees, site.resolution = self._resolve_call(module, node)
            yield site

    def _resolve_call(self, module: ModuleSource,
                      node: ast.Call) -> Tuple[Tuple[str, ...], str]:
        func = node.func
        modname = module.modname
        if isinstance(func, ast.Name):
            local = f"{modname}.{func.id}"
            if local in self.functions:
                return (local,), "local"
            imported = self.imported_names.get(modname, {}).get(func.id)
            if imported is not None:
                src_mod, src_name = imported
                qual = f"{src_mod}.{src_name}"
                if qual in self.functions:
                    return (qual,), "import"
            return (), "unresolved"
        if isinstance(func, ast.Attribute):
            value = func.value
            # mod.f(...) through an imported module alias
            if isinstance(value, ast.Name):
                target = self.module_aliases.get(modname, {}).get(value.id)
                if target is not None:
                    qual = f"{target}.{func.attr}"
                    if qual in self.functions:
                        return (qual,), "import"
                if value.id == "self":
                    candidates = self._self_candidates(modname, func.attr)
                    if candidates:
                        return candidates, "self"
            # by-name fallback: every analysed function with this name
            candidates = tuple(self.by_name.get(func.attr, ()))
            if candidates:
                return candidates, "by-name"
        return (), "unresolved"

    def _self_candidates(self, modname: str,
                         method: str) -> Tuple[str, ...]:
        return tuple(sorted(
            info.qualname for info in self.functions.values()
            if info.modname == modname and info.class_name
            and info.name == method))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def call_sites(self) -> Iterator[CallSite]:
        for caller in sorted(self.calls):
            yield from self.calls[caller]

    def sites_in(self, qualname: str) -> List[CallSite]:
        return self.calls.get(qualname, [])

    def module_of(self, qualname: str) -> str:
        info = self.functions.get(qualname)
        return info.modname if info is not None else ""

    def importers_of(self, modname: str) -> List[str]:
        """Modules with an import edge to ``modname`` (sorted)."""
        return sorted(src for src, targets in self.imports.items()
                      if modname in targets and src != modname)
