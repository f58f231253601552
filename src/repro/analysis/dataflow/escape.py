"""Module-level state escape analysis (rule SNIC010).

A cell (one simulated NIC run start to finish, :mod:`repro.obs.cell`)
must start from the state every cell starts from: the same cell run
alone, after another cell in the same process, or in a ``--shards``
worker gives the same records.  What a cell writes is either part of
its :class:`~repro.obs.cell.CellState`, which ``isolate()`` replaces
between cells, or part of the objects the cell builds.  A module-level
mutable a cell writes is neither: it outlives the cell and carries one
cell's writes into the next.

This pass inventories every module-level binding, resolves aliases
(``from m import NAME``, ``import m`` then ``m.NAME``, ``X = NAME``) to
the objects they name, and classifies each object:

* **cell-safe** — immutable values (constants, tuples, frozensets,
  compiled regexes); mutables only ever written at module top level
  (import-time initialisation replays identically in every process);
  and the cell-state holder itself (a binding of ``CellState()``),
  whose fields ``isolate()`` replaces;
* **cell-unsafe** — mutables written from *function* scope anywhere in
  the program, through any alias: mutator method calls, subscript
  stores/deletes, attribute stores, ``global`` rebinds, augmented
  assignments; and bindings that capture a cell-state field at import
  time (``_TRACER = get_tracer()``, ``_AUDIT = CELL.audit``), which
  keep the first cell's object after ``isolate()`` installs a new one.

Known approximations (DESIGN.md §1.10): aliasing through locals
(``x = FLOW_TABLE; x[k] = v``) and mutation behind ``getattr`` are
invisible; attribute mutation (``obj.field = ...``) on a module-level
instance is treated as mutation of that instance.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.dataflow.graph import ProgramGraph

#: Calls whose results are immutable (or immutable-enough: a compiled
#: regex has no user-visible mutable state).
_IMMUTABLE_CALLS = frozenset({
    "frozenset", "tuple", "int", "float", "str", "bytes", "bool",
    "complex", "compile", "namedtuple", "TypeVar", "Path",
})

#: The class whose instance holds the cell state, and the accessors
#: returning one of its fields (:mod:`repro.obs.cell`).
_CELL_STATE = "CellState"
_CELL_ACCESSORS = frozenset({
    "get_accountant", "get_audit_log", "get_registry", "get_tracer",
})

#: Method names that mutate their receiver.
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "appendleft", "popleft",
    "sort", "reverse", "write", "inc", "dec", "set", "observe",
    "register",
})

Key = Tuple[str, str]


@dataclass
class ModuleStateInfo:
    """One module-level object and its cell-safety classification."""

    modname: str
    name: str
    lineno: int
    col: int
    kind: str                     # "dict literal", "call:CellState", ...
    mutable: bool
    cell_safe: bool
    reasons: List[str] = field(default_factory=list)
    #: modules that bind this object under their own name, sorted.
    aliases: List[str] = field(default_factory=list)
    #: the binding's value expression (``None`` for annotations).
    value: Optional[ast.AST] = field(default=None, repr=False)

    @property
    def qualname(self) -> str:
        return f"{self.modname}.{self.name}"

    @property
    def cell_state(self) -> bool:
        """Whether this is a cell-state holder (``CellState()``)."""
        return self.kind == f"call:{_CELL_STATE}"


def _callee(call: ast.Call) -> str:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return ""


def _value_kind(node: Optional[ast.AST]) -> Tuple[str, bool]:
    """(kind label, is-mutable)."""
    if node is None:
        return "annotation-only", False
    if isinstance(node, ast.Constant):
        return f"constant {type(node.value).__name__}", False
    if isinstance(node, ast.Tuple):
        if all(_value_kind(el)[1] is False for el in node.elts):
            return "tuple literal", False
        return "tuple of mutables", True
    if isinstance(node, ast.List):
        return "list literal", True
    if isinstance(node, ast.Dict):
        return "dict literal", True
    if isinstance(node, ast.Set):
        return "set literal", True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return "comprehension", True
    if isinstance(node, ast.Call):
        callee = _callee(node)
        if callee in _IMMUTABLE_CALLS:
            return f"call:{callee}", False
        return f"call:{callee or '?'}", True
    if isinstance(node, (ast.Name, ast.Attribute)):
        return "alias", True
    if isinstance(node, ast.BinOp):
        return "expression", False
    return type(node).__name__.lower(), True


_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk_scoped(root: ast.AST,
                 qualname: str) -> Iterator[Tuple[ast.AST, str]]:
    """``ast.walk`` order over a function, each node paired with the
    qualname of its innermost enclosing function."""
    todo = deque([(root, qualname)])
    while todo:
        node, scope = todo.popleft()
        sep = "." if isinstance(node, ast.ClassDef) else ".<locals>."
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, _FUNCTION_NODES + (ast.ClassDef,)):
                inner = scope + sep + child.name
            todo.append((child, inner))
        yield node, scope


@dataclass
class _Mutation:
    """Evidence that an object is written from function scope.

    ``scope`` is the qualname of the function the write sits in, not
    its line, so a finding does not change when code moves.
    """

    modname: str
    scope: str
    what: str

    def text(self) -> str:
        return f"{self.modname}:{self.scope} {self.what}"


class EscapeAnalysis:
    """Classifies every module-level object across the program."""

    def __init__(self, graph: ProgramGraph) -> None:
        self.graph = graph
        #: (defining module, name) -> info, for every binding
        self.bindings: Dict[Key, ModuleStateInfo] = {}
        #: alias binding -> the binding it names (or names a part of)
        self.alias_of: Dict[Key, Key] = {}
        #: binding -> the cell-state field it captures at import time
        self.captures: Dict[Key, str] = {}

    def run(self) -> List[ModuleStateInfo]:
        """One :class:`ModuleStateInfo` per object (aliases folded into
        the binding they name), sorted by qualname."""
        for modname in sorted(self.graph.modules):
            self._collect_bindings(modname)
        self._resolve_aliases()
        self._collect_aliases()
        mutations = self._collect_mutations()
        objects = [(key, info) for key, info in sorted(self.bindings.items())
                   if key not in self.alias_of]
        for key, info in objects:
            self._classify(key, info, mutations.get(key, []))
        return [info for _, info in objects]

    # ------------------------------------------------------------------

    def _collect_bindings(self, modname: str) -> None:
        module = self.graph.modules[modname]
        if not isinstance(module.tree, ast.Module):
            return
        for node in module.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if (modname, target.id) in self.bindings:
                    continue  # first binding wins; rebinds are evidence
                kind, mutable = _value_kind(value)
                self.bindings[(modname, target.id)] = ModuleStateInfo(
                    modname=modname, name=target.id,
                    lineno=node.lineno, col=node.col_offset + 1,
                    kind=kind, mutable=mutable, cell_safe=True,
                    value=value)

    def _lookup(self, modname: str, name: str) -> Optional[Key]:
        """The binding ``name`` refers to in ``modname``'s namespace."""
        if (modname, name) in self.bindings:
            return (modname, name)
        src = self.graph.imported_names.get(modname, {}).get(name)
        return src if src is not None and src in self.bindings else None

    def _base(self, modname: str,
              expr: ast.AST) -> Optional[Tuple[Key, bool]]:
        """The binding named at the base of ``expr`` in ``modname``, and
        whether ``expr`` is that binding itself rather than an
        attribute or element of it."""
        if isinstance(expr, ast.Name):
            key = self._lookup(modname, expr.id)
            return None if key is None else (key, True)
        if isinstance(expr, ast.Attribute):
            value = expr.value
            aliases = self.graph.module_aliases.get(modname, {})
            if isinstance(value, ast.Name) and value.id in aliases:
                target = (aliases[value.id], expr.attr)
                return (target, True) if target in self.bindings else None
        if isinstance(expr, (ast.Attribute, ast.Subscript)):
            found = self._base(modname, expr.value)
            return None if found is None else (found[0], False)
        return None

    def _object(self, key: Key) -> Key:
        """The binding of the object ``key`` names, through aliases."""
        seen = {key}
        while key in self.alias_of:
            key = self.alias_of[key]
            if key in seen:
                break
            seen.add(key)
        return key

    def _resolve_aliases(self) -> None:
        """Fold ``X = NAME`` / ``X = m.NAME`` / ``X = NAME.part`` into the
        object they name; a part of the cell state bound at module level
        is a capture, not an alias (``isolate()`` replaces the part)."""
        parts: Dict[Key, str] = {}
        for key, info in sorted(self.bindings.items()):
            value = info.value
            if isinstance(value, ast.Call):
                if _callee(value) in _CELL_ACCESSORS:
                    self.captures[key] = f"{_callee(value)}()"
                continue
            if not isinstance(value, (ast.Name, ast.Attribute)):
                continue
            found = self._base(key[0], value)
            if found is None or found[0] == key:
                continue
            self.alias_of[key] = found[0]
            if not found[1]:
                parts[key] = ast.unparse(value)
        for key, text in parts.items():
            if self.bindings[self._object(key)].cell_state:
                del self.alias_of[key]
                self.captures[key] = text

    def _collect_aliases(self) -> None:
        def note(key: Key, importer: str) -> None:
            info = self.bindings[self._object(key)]
            if importer != info.modname and importer not in info.aliases:
                info.aliases.append(importer)

        for importer, names in sorted(self.graph.imported_names.items()):
            for _local, src in sorted(names.items()):
                if src in self.bindings:
                    note(src, importer)
        for key in sorted(self.alias_of):
            note(key, key[0])
        for info in self.bindings.values():
            info.aliases.sort()

    # ------------------------------------------------------------------

    def _collect_mutations(self) -> Dict[Key, List[_Mutation]]:
        out: Dict[Key, List[_Mutation]] = {}

        for modname in sorted(self.graph.modules):
            module = self.graph.modules[modname]

            def record(expr: ast.AST, what: str, scope: str,
                       modname: str = modname) -> None:
                found = self._base(modname, expr)
                if found is not None:
                    out.setdefault(self._object(found[0]), []).append(
                        _Mutation(modname, scope, what))

            for fn_node, qualname in self._functions(module.tree):
                for node, scope in _walk_scoped(fn_node, qualname):
                    self._scan_node(node, scope, record)
        return out

    def _functions(self, tree: ast.AST) -> List[Tuple[ast.AST, str]]:
        """Top-level functions and methods with their qualnames."""
        out: List[Tuple[ast.AST, str]] = []
        if not isinstance(tree, ast.Module):
            return out
        for node in tree.body:
            if isinstance(node, _FUNCTION_NODES):
                out.append((node, node.name))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNCTION_NODES):
                        out.append((item, f"{node.name}.{item.name}"))
        return out

    @staticmethod
    def _scan_node(node: ast.AST, scope: str,
                   record: Callable[[ast.AST, str, str], None]) -> None:
        if isinstance(node, ast.Global):
            for name in node.names:
                record(ast.Name(id=name), f"global rebind of {name}", scope)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATORS:
            record(node.func.value, f"mutator .{node.func.attr}() call",
                   scope)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    record(target, "subscript store", scope)
                elif isinstance(target, ast.Attribute):
                    record(target, f"attribute store .{target.attr}", scope)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    record(target, "del on element/attribute", scope)

    # ------------------------------------------------------------------

    def _classify(self, key: Key, info: ModuleStateInfo,
                  evidence: Sequence[_Mutation]) -> None:
        if info.cell_state:
            info.reasons.append("the cell state: isolate() replaces its "
                                "fields")
            return
        captured = self.captures.get(key)
        if captured is not None:
            info.cell_safe = False
            info.reasons.append(
                f"binds a cell-state field at import time ({captured}); "
                f"isolate() installs a new one, this name keeps the "
                f"first cell's")
        rebinds = [mut for mut in evidence
                   if mut.what.startswith("global rebind")]
        if info.mutable or captured is not None:
            rebinds = list(evidence)
        if rebinds:
            info.cell_safe = False
            info.reasons.extend(dict.fromkeys(mut.text() for mut in rebinds))
        if info.cell_safe:
            info.reasons.append("mutable, but only written at import time"
                                if info.mutable else "immutable value")
