"""The module/import graph over parsed ASTs.

The escape analysis (rule SNIC010) consumes :class:`ProgramGraph`: the
analysed modules by dotted name, and for each module the names its
``import`` and ``from … import`` statements bind to other analysed
modules.  An imported dotted name resolves to an analysed module by
exact match, else by a unique suffix match, so fixture trees outside
the ``repro`` package still form import edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.lint import ModuleSource


@dataclass
class ProgramGraph:
    """The whole-program view the escape analysis consumes."""

    modules: Dict[str, ModuleSource] = field(default_factory=dict)
    #: module -> {local alias -> imported module name} for module aliases.
    module_aliases: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: module -> {local name -> (source module, source name)} for
    #: ``from m import x [as y]`` bindings resolved to analysed modules.
    imported_names: Dict[str, Dict[str, Tuple[str, str]]] = \
        field(default_factory=dict)

    @classmethod
    def build(cls, modules: Sequence[ModuleSource]) -> "ProgramGraph":
        graph = cls()
        for module in modules:
            graph.modules[module.modname] = module
        for module in modules:
            graph._index_imports(module)
        return graph

    def _resolve_module(self, dotted: str) -> Optional[str]:
        """Match an imported dotted name to an analysed module."""
        if dotted in self.modules:
            return dotted
        tail = dotted.rsplit(".", 1)[-1]
        candidates = sorted(
            name for name in self.modules
            if name == tail or name.endswith("." + tail))
        return candidates[0] if len(candidates) == 1 else None

    def _index_imports(self, module: ModuleSource) -> None:
        aliases = self.module_aliases.setdefault(module.modname, {})
        names = self.imported_names.setdefault(module.modname, {})
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    target = self._resolve_module(item.name)
                    if target is not None:
                        aliases[item.asname or item.name.split(".")[0]] = \
                            target
            elif isinstance(node, ast.ImportFrom) and node.module:
                target = self._resolve_module(node.module)
                if target is None:
                    continue
                for item in node.names:
                    if item.name != "*":
                        names[item.asname or item.name] = (target, item.name)
