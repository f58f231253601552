"""SNIC010 — module-level state a cell writes outside the cell state.

A cell (one simulated NIC run start to finish, :mod:`repro.obs.cell`)
must start from the state every cell starts from: the same cell run
alone, after another cell in the same process, or in a ``--shards``
worker gives the same records.  What a cell writes is either part of
its :class:`~repro.obs.cell.CellState`, which ``isolate()`` replaces
between cells, or part of the objects the cell builds.  A module-level
mutable a cell writes is neither: it outlives the cell and carries one
cell's writes into the next.

The rule is a :class:`~repro.analysis.lint.ProgramRule`: it sees every
module at once, because a mutable's writers may sit in other modules.
It indexes each module's imports, inventories every module-level
binding (plus one object per ``global X`` a function stores to when
``X`` has no top-level binding), resolves aliases (``from m import
NAME``, ``import m`` then ``m.NAME``, ``X = NAME``) to the objects they
name, and classifies each object:

* **cell-safe** — immutable values (constants, tuples, frozensets,
  compiled regexes); mutables only ever written at module top level
  (import-time initialisation replays identically in every process);
  and the cell-state holder itself (a binding of ``CellState()``),
  whose fields ``isolate()`` replaces;
* **cell-unsafe** — mutables written from *function* scope anywhere in
  the program, through any alias: mutator method calls, subscript
  stores/deletes, attribute stores, augmented assignments; any object
  a function rebinds through ``global``; and bindings that capture a
  cell-state field at import time (``_TRACER = get_tracer()``,
  ``_AUDIT = CELL.audit``), which keep the first cell's object after
  ``isolate()`` installs a new one.

Each cell-unsafe object is one finding at its binding, keyed by its
qualname; each function that rebinds it through ``global`` is one more,
at the ``global`` statement.

Known approximations (DESIGN.md §1.10): aliasing through locals
(``x = FLOW_TABLE; x[k] = v``) and mutation behind ``getattr`` are
invisible; attribute mutation (``obj.field = ...``) on a module-level
instance is treated as mutation of that instance.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.lint import Finding, ModuleSource, ProgramRule

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
    #: the ``global`` statements of the functions that rebind it.
    rebinds: List["_Mutation"] = field(default_factory=list, repr=False)

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


def _functions(tree: ast.AST) -> List[Tuple[ast.AST, str]]:
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


def _global_stores(
        tree: ast.AST) -> Iterator[Tuple[ast.Global, str, str]]:
    """``(global statement, name, scope)`` for every name a function
    declares ``global`` and stores to in the same scope."""
    for fn_node, qualname in _functions(tree):
        declared: List[Tuple[ast.Global, str]] = []
        stored: Set[Tuple[str, str]] = set()
        for node, scope in _walk_scoped(fn_node, qualname):
            if isinstance(node, ast.Global):
                declared.append((node, scope))
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)):
                stored.add((scope, node.id))
        for node, scope in declared:
            for name in node.names:
                if (scope, name) in stored:
                    yield node, name, scope


@dataclass
class _Mutation:
    """Evidence that an object is written from function scope.

    ``scope`` is the qualname of the function the write sits in, not
    its line, so a finding does not change when code moves.
    """

    modname: str
    scope: str
    what: str
    #: the ``global`` statement, for a rebind.
    node: Optional[ast.Global] = None

    def text(self) -> str:
        return f"{self.modname}:{self.scope} {self.what}"


class EscapeAnalysis:
    """Classifies every module-level object across the program."""

    def __init__(self, modules: Sequence[ModuleSource]) -> None:
        self.modules: Dict[str, ModuleSource] = {
            module.modname: module for module in modules}
        #: module -> {local alias -> imported module name}.
        self.module_aliases: Dict[str, Dict[str, str]] = {}
        #: module -> {local name -> (source module, source name)} for
        #: ``from m import x [as y]`` bindings resolved to analysed
        #: modules.
        self.imported_names: Dict[str, Dict[str, Key]] = {}
        for modname in self.modules:
            self._index_imports(modname)
        #: (defining module, name) -> info, for every binding
        self.bindings: Dict[Key, ModuleStateInfo] = {}
        #: alias binding -> the binding it names (or names a part of)
        self.alias_of: Dict[Key, Key] = {}
        #: binding -> the cell-state field it captures at import time
        self.captures: Dict[Key, str] = {}

    def run(self) -> List[ModuleStateInfo]:
        """One :class:`ModuleStateInfo` per object (aliases folded into
        the binding they name), sorted by qualname."""
        for modname in sorted(self.modules):
            self._collect_bindings(modname)
        for modname in sorted(self.modules):
            self._collect_global_bindings(modname)
        self._resolve_aliases()
        self._collect_aliases()
        mutations = self._collect_mutations()
        objects = [(key, info) for key, info in sorted(self.bindings.items())
                   if key not in self.alias_of]
        for key, info in objects:
            self._classify(key, info, mutations.get(key, []))
        return [info for _, info in objects]

    # ------------------------------------------------------------------
    # The import index: an imported dotted name resolves to an analysed
    # module by exact match, else by a unique suffix match, so trees
    # outside the ``repro`` package still form import edges.

    def _resolve_module(self, dotted: str) -> Optional[str]:
        if dotted in self.modules:
            return dotted
        tail = dotted.rsplit(".", 1)[-1]
        candidates = [name for name in self.modules
                      if name == tail or name.endswith("." + tail)]
        return candidates[0] if len(candidates) == 1 else None

    def _index_imports(self, modname: str) -> None:
        aliases = self.module_aliases.setdefault(modname, {})
        names = self.imported_names.setdefault(modname, {})
        for node in ast.walk(self.modules[modname].tree):
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

    # ------------------------------------------------------------------

    def _collect_bindings(self, modname: str) -> None:
        module = self.modules[modname]
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

    def _collect_global_bindings(self, modname: str) -> None:
        """A ``global X`` a function stores to makes ``X`` a module
        object even when no top-level statement binds it; the first
        such statement stands in for the binding."""
        for node, name, _scope in _global_stores(self.modules[modname].tree):
            self.bindings.setdefault((modname, name), ModuleStateInfo(
                modname=modname, name=name,
                lineno=node.lineno, col=node.col_offset + 1,
                kind="global without a top-level binding", mutable=False,
                cell_safe=True))

    def _lookup(self, modname: str, name: str) -> Optional[Key]:
        """The binding ``name`` refers to in ``modname``'s namespace."""
        if (modname, name) in self.bindings:
            return (modname, name)
        src = self.imported_names.get(modname, {}).get(name)
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
            aliases = self.module_aliases.get(modname, {})
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

        for importer, names in sorted(self.imported_names.items()):
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

        for modname in sorted(self.modules):
            module = self.modules[modname]

            def record(expr: ast.AST, what: str, scope: str,
                       modname: str = modname) -> None:
                found = self._base(modname, expr)
                if found is not None:
                    out.setdefault(self._object(found[0]), []).append(
                        _Mutation(modname, scope, what))

            for node, name, scope in _global_stores(module.tree):
                out.setdefault(self._object((modname, name)), []).append(
                    _Mutation(modname, scope, f"global rebind of {name}",
                              node))
            for fn_node, qualname in _functions(module.tree):
                for node, scope in _walk_scoped(fn_node, qualname):
                    self._scan_node(node, scope, record)
        return out

    @staticmethod
    def _scan_node(node: ast.AST, scope: str,
                   record: Callable[[ast.AST, str, str], None]) -> None:
        if isinstance(node, ast.Call) and \
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
        info.rebinds = [mut for mut in evidence if mut.node is not None]
        counted = evidence if info.mutable or captured is not None \
            else info.rebinds
        if counted:
            info.cell_safe = False
            info.reasons.extend(dict.fromkeys(mut.text() for mut in counted))
        if info.cell_safe:
            info.reasons.append("mutable, but only written at import time"
                                if info.mutable else "immutable value")


class SharedMutableStateRule(ProgramRule):
    rule_id = "SNIC010"
    title = "module-level state a cell writes outside the cell state"
    rationale = ("§4.6: each network function's state is created at "
                 "launch and scrubbed at teardown; a cell (one "
                 "simulated NIC run) starts from fresh state because "
                 "isolate() replaces the CellState, and a module-level "
                 "object a cell writes or rebinds outlives it, so a cell "
                 "run after another (in process or in a --shards "
                 "worker) no longer gives the records it gives alone")
    hint = ("keep the state on an object the cell builds, or make it a "
            "CellState field (repro.obs.cell) and read it as "
            "CELL.<field> at the call site, never through a module "
            "alias; suppress with # snic: ignore[SNIC010] only for "
            "state no report can see (a deterministic per-process "
            "cache)")

    def check_program(
            self, modules: Sequence[ModuleSource]) -> Iterator[Finding]:
        paths = {module.modname: str(module.path) for module in modules}
        for info in EscapeAnalysis(modules).run():
            if info.cell_safe:
                continue
            evidence = "; ".join(info.reasons[:3])
            more = len(info.reasons) - 3
            if more > 0:
                evidence += f"; +{more} more"
            alias_note = ""
            if info.aliases:
                alias_note = (" (aliased by "
                              + ", ".join(info.aliases) + ")")
            yield Finding(
                rule=self.rule_id,
                message=(
                    f"module-level {info.kind} {info.name!r} outlives "
                    f"the cell: {evidence}{alias_note}"),
                path=paths[info.modname], line=info.lineno, col=info.col,
                hint=self.hint, key=info.qualname)
            for site in info.rebinds:
                node = site.node
                if node is None:
                    continue
                line, col = node.lineno, node.col_offset + 1
                if (site.modname, line, col) == \
                        (info.modname, info.lineno, info.col):
                    continue  # the statement stands in for the binding
                yield Finding(
                    rule=self.rule_id,
                    message=(f"{site.scope}() rebinds module global "
                             f"{info.qualname!r}, which outlives the cell"),
                    path=paths[site.modname], line=line, col=col,
                    hint=self.hint, key=site.text())
