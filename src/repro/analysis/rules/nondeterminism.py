"""SNIC002/SNIC005 — nondeterminism in simulation paths.

The event kernel (:mod:`repro.hw.events`) promises bit-identical reruns:
the determinism checker (:mod:`repro.analysis.determinism`), the
noninterference experiments and every byte-compared report (matrix,
chaos, audit, post-mortem bundles) depend on it.  Two static rules
guard that promise:

* **SNIC002** — the one determinism rule, applied to every module with
  no name scope: host-clock reads (one catalog: ``time.time``,
  ``perf_counter``, ``strftime``, ``datetime.now``, ...), draws from the
  process-global RNG (``random.random()``, ``np.random.rand()``,
  ``random.seed(...)``), a ``Random()``/``default_rng()`` constructed
  without a seed, and set iteration feeding ``schedule()`` (set order is
  hash-randomized across processes for str/bytes elements).  Call names
  resolve through the module's imports first, so ``from time import
  time`` or ``import time as t`` cannot hide a clock.  Code that
  *measures* host time (the bench harness) says so with a tagged
  ``# snic: ignore[SNIC002]``.
* **SNIC005** — float arithmetic on sim-time nanoseconds.  The kernel
  clock is integral by design; a float delay in ``schedule()`` (or
  a float interval in ``every()``, or
  float arithmetic on ``*_ns`` state inside the kernel/runtime) makes
  event ordering depend on rounding.  Analog latency *models* (bus,
  accelerators) use float ns as their modelling currency and are out of
  scope — the rule only polices what reaches the kernel.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analysis.lint import (
    Finding,
    ModuleSource,
    Rule,
    call_name,
    dotted_name,
    is_schedule_call,
)

#: Host-clock entry points: each returns a different value per run.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.strftime", "time.localtime",
    "time.gmtime", "time.ctime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "date.today",
})

#: Calls on the shared, process-global RNG: draws, and ``seed`` (any
#: import can perturb the global state after it).  Constructing
#: ``random.Random(seed)`` / ``np.random.default_rng(seed)`` is the
#: *fix*, so those are not listed.
_RANDOM_DRAWS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "paretovariate", "vonmisesvariate", "triangular",
    "getrandbits", "random_sample", "rand", "randn", "permutation",
    "seed",
})
_RANDOM_MODULES = frozenset({"random", "np.random", "numpy.random"})

#: Generator constructors that seed themselves from OS entropy when
#: called with no argument.
_RNG_CONSTRUCTORS = frozenset({"Random", "default_rng"})

#: Modules whose ``*_ns`` state is kernel sim-time (integral by
#: contract); everywhere else float ns is legitimate model currency.
_KERNEL_MODULES = ("repro.hw.events", "repro.core.runtime")


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("set", "frozenset"):
        return True
    # set algebra (a | b, a - b) over set() calls
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _import_origins(tree: ast.AST) -> Dict[str, str]:
    """Local name -> what it was imported as, for every import in the
    module: ``import time as t`` binds ``t`` to ``time``, ``from time
    import perf_counter as pc`` binds ``pc`` to ``time.perf_counter``."""
    origins: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    origins[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            for alias in node.names:
                origins[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return origins


def _resolve(name: str, origins: Dict[str, str]) -> str:
    """``name`` with its first component replaced by its import origin
    (``pc`` -> ``time.perf_counter``, ``t.time`` -> ``time.time``)."""
    head, dot, rest = name.partition(".")
    origin = origins.get(head)
    return origin + dot + rest if origin else name


def _rng_problem(node: ast.Call, name: str) -> Optional[str]:
    """Why the call draws nondeterministic randomness, if it does."""
    prefix, _, attr = name.rpartition(".")
    if prefix in _RANDOM_MODULES and attr in _RANDOM_DRAWS:
        return f"module-level {name}() uses the process-global RNG"
    if attr in _RNG_CONSTRUCTORS and (prefix in _RANDOM_MODULES
                                      or not prefix) \
            and not node.args and not node.keywords:
        return f"{name}() without a seed draws from OS entropy"
    return None


class NondeterminismRule(Rule):
    rule_id = "SNIC002"
    title = "nondeterminism leaking into simulation paths"
    rationale = ("§5/§6 experiments, the determinism checker and every "
                 "byte-compared report require bit-identical reruns; "
                 "host clocks, unseeded or process-global RNGs, and set "
                 "iteration order break that")
    hint = ("use a seeded random.Random(seed)/np.random.default_rng(seed) "
            "instance, simulated time (Simulator.now_ns), and sorted() "
            "before iterating a set whose order reaches schedule(); code "
            "that measures host time tags the read "
            "# snic: ignore[SNIC002] with its reason")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        origins = _import_origins(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _resolve(dotted_name(node.func), origins)
                if name in _WALL_CLOCK:
                    yield self.finding(
                        module, node,
                        f"wall-clock read {name}() in simulation code")
                    continue
                problem = _rng_problem(node, name)
                if problem is not None:
                    yield self.finding(module, node, problem)
            elif isinstance(node, ast.For) and _is_set_expr(node.iter):
                schedule = next(
                    (n for child in node.body for n in ast.walk(child)
                     if is_schedule_call(n)),
                    None)
                if schedule is not None:
                    yield self.finding(
                        module, node,
                        "set iteration order escapes into "
                        "events.schedule() arguments")


def _float_source(node: ast.AST) -> Optional[ast.AST]:
    """The sub-expression proving ``node`` is float-valued, if any."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, float):
            return child
        if isinstance(child, ast.Call) and \
                isinstance(child.func, ast.Name) and child.func.id == "float":
            return child
        if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div):
            return child
    return None


def _mentions_sim_ns(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id.endswith("_ns"):
            return True
        if isinstance(child, ast.Attribute) and child.attr.endswith("_ns"):
            return True
    return False


class FloatSimTimeRule(Rule):
    rule_id = "SNIC005"
    title = "float arithmetic on sim-time nanoseconds"
    rationale = ("the event kernel's clock is integral; float delays make "
                 "event order depend on rounding, breaking the stable "
                 "same-instant ordering guarantee")
    hint = ("keep kernel sim-time integral: round/int() the model's float "
            "latency once, at the schedule() boundary")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        in_kernel = module.modname.startswith(_KERNEL_MODULES)
        for node in ast.walk(module.tree):
            if is_schedule_call(node) and node.args:
                source = _float_source(node.args[0])
                if source is not None:
                    yield self.finding(
                        module, node,
                        f"provably float-valued delay/time passed to "
                        f"{call_name(node)}(); sim-time must stay integral")
            elif in_kernel and isinstance(node, ast.BinOp):
                has_float = isinstance(
                    node.left, ast.Constant) and isinstance(
                    node.left.value, float) or (
                    isinstance(node.right, ast.Constant) and isinstance(
                        node.right.value, float))
                if has_float and (_mentions_sim_ns(node.left)
                                  or _mentions_sim_ns(node.right)):
                    yield self.finding(
                        module, node,
                        "float constant mixed into *_ns kernel sim-time "
                        "arithmetic")
