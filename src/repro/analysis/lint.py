"""The S-NIC lint engine: an AST visitor framework with pluggable rules.

Generic linters cannot know that ``memory.claim_pages`` outside the
trusted mediation layers is an isolation bypass, or that a float leaking
into ``Simulator.schedule`` breaks event-order determinism.  This engine
runs project-specific rules (:mod:`repro.analysis.rules`) over the
source tree and reports findings with fix-it hints.

Usage::

    python -m repro lint                      # lint src/repro, text output
    python -m repro lint --format json path/  # machine-readable
    python -m repro lint --format github      # ::error annotations for CI

Suppressions
------------

A finding is suppressed by a ``# snic: ignore[RULE]`` comment on the
flagged line or anywhere in the contiguous pure-comment block directly
above it (justifications are encouraged to run several lines).
``# snic: ignore`` without a rule list suppresses every rule on that
line.  Suppressions are expected to carry a justification in the same
comment, e.g.::

    # snic: ignore[SNIC001] — trusted hardware: nf_launch *is* the mediator
    self.memory.claim_pages(nf_id, pages)

``--show-suppressed`` lists what was silenced; the exit code only counts
active findings.  ``--stats`` audits the suppression inventory itself:
per-rule counts plus any tag that no longer silences a finding from any
rule, per-module or whole-program (SNIC010,
:mod:`repro.analysis.rules.shared_state`) — stale tags fail CI.
"""

from __future__ import annotations

import ast
import io
import json
import re
import sys
import tokenize
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeGuard,
)

_SUPPRESS_RE = re.compile(
    r"#\s*snic:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")


@dataclass
class Finding:
    """One rule violation at a source location.

    ``key`` is a stable fingerprint for whole-program findings (a
    qualname, not a line number); per-module lint rules leave it empty.
    """

    rule: str
    message: str
    path: str
    line: int
    col: int
    hint: str = ""
    suppressed: bool = False
    key: str = ""

    @property
    def active(self) -> bool:
        return not self.suppressed


@dataclass
class ModuleSource:
    """One parsed source file handed to every rule."""

    path: Path
    modname: str            # dotted module name, e.g. "repro.hw.cache"
    text: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, modname: str) -> "ModuleSource":
        text = path.read_text()
        return cls(path=path, modname=modname, text=text,
                   tree=ast.parse(text, filename=str(path)),
                   lines=text.splitlines())

    def suppression_match(
            self, line: int) -> Optional[Tuple[Set[str], int]]:
        """The suppression governing 1-based ``line``, if any.

        Returns ``(rules, comment_line)`` where ``rules`` is the set of
        silenced rule ids (empty set = blanket ``# snic: ignore``) and
        ``comment_line`` is the 1-based line carrying the tag — used by
        ``--stats`` to flag tags that never suppress anything.

        The tag is honoured on the flagged line itself or anywhere in
        the contiguous block of pure-comment lines directly above it —
        justifications are encouraged to run longer than one line.
        """
        candidates: List[Tuple[str, int]] = []
        if 1 <= line <= len(self.lines):
            candidates.append((self.lines[line - 1], line))
        cursor = line - 1
        while 1 <= cursor <= len(self.lines) and \
                self.lines[cursor - 1].lstrip().startswith("#"):
            candidates.append((self.lines[cursor - 1], cursor))
            cursor -= 1
        for text, text_line in candidates:
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                return set(), text_line
            return ({r.strip().upper() for r in rules.split(",")
                     if r.strip()}, text_line)
        return None

    def suppressed_rules_at(self, line: int) -> Optional[set]:
        """Rules silenced at 1-based ``line`` (None = not suppressed,
        empty set = blanket ``# snic: ignore``)."""
        match = self.suppression_match(line)
        return None if match is None else match[0]

    def suppression_comments(self) -> List[Tuple[int, FrozenSet[str]]]:
        """Every ``# snic: ignore`` tag in real comment tokens.

        Returns ``(line, rules)`` pairs (empty frozenset = blanket tag).
        Tokenizing — rather than grepping lines — keeps tags quoted
        inside docstrings and string literals (this module's own usage
        examples, rule hint texts) from being mistaken for suppressions.
        """
        out: List[Tuple[int, FrozenSet[str]]] = []
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(self.text).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                match = _SUPPRESS_RE.search(tok.string)
                if match is None:
                    continue
                rules = match.group("rules")
                out.append((tok.start[0], frozenset(
                    () if rules is None else
                    (r.strip().upper() for r in rules.split(",")
                     if r.strip()))))
        except tokenize.TokenError:  # unterminated string etc.
            pass
        return out


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id``/``title``/``rationale``/``hint`` and
    implement :meth:`check`.  ``rationale`` maps the rule to the paper
    section whose invariant it protects (catalogued in DESIGN.md §1.5).
    """

    rule_id: str = "SNIC000"
    title: str = ""
    rationale: str = ""
    hint: str = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str,
                hint: Optional[str] = None) -> Finding:
        return Finding(
            rule=self.rule_id,
            message=message,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            hint=self.hint if hint is None else hint,
        )


class ProgramRule:
    """Base class for whole-program rules (SNIC010).

    Unlike :class:`Rule`, which sees one module at a time, a program
    rule sees every parsed module at once — that is what lets SNIC010
    see a cross-module alias of a mutable.  :class:`LintEngine` runs
    program rules in the same pass as the per-module rules, with the
    same :class:`Finding`, format and suppression machinery.
    """

    rule_id: str = "SNIC000"
    title: str = ""
    rationale: str = ""
    hint: str = ""

    def check_program(
            self, modules: Sequence[ModuleSource]) -> Iterator[Finding]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Shared AST helpers used by several rules
# ----------------------------------------------------------------------

def call_name(node: ast.Call) -> str:
    """The called attribute/function name: ``a.b.c()`` -> ``"c"``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def receiver_token(node: ast.Call) -> str:
    """The last name component of the call receiver, lowercased.

    ``self.vnic._snic.memory.read(...)`` -> ``"memory"``;
    ``get_registry().gauge(...)`` -> ``"get_registry"``;
    ``host.read(...)`` -> ``"host"``; plain ``read(...)`` -> ``""``.
    """
    func = node.func
    if not isinstance(func, ast.Attribute):
        return ""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr.lower()
    if isinstance(value, ast.Name):
        return value.id.lower()
    if isinstance(value, ast.Call):
        return call_name(value).lower()
    return ""


#: Kernel calls taking a sim-time first and a callback second
#: (``Simulator.schedule``/``schedule_at``/``every``): the calls whose
#: arguments SNIC002 and SNIC005 inspect.
SCHEDULE_METHODS = frozenset({"schedule", "schedule_at", "every"})


def is_schedule_call(node: ast.AST) -> TypeGuard[ast.Call]:
    """Whether ``node`` is a ``<receiver>.<SCHEDULE_METHODS>(...)`` call."""
    return isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Attribute) \
        and node.func.attr in SCHEDULE_METHODS


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``np.random.rand``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def has_keyword(node: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in node.keywords)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

def default_rules() -> List[Rule]:
    from repro.analysis.rules import all_rules

    return all_rules()


def default_program_rules() -> List[ProgramRule]:
    from repro.analysis.rules import all_program_rules

    return all_program_rules()


def source_root() -> Path:
    """The ``repro`` package directory of this checkout."""
    import repro

    return Path(repro.__file__).resolve().parent


def module_name_for(path: Path, depth: int = 1) -> str:
    """Dotted module name for ``path``: ``repro.…`` when under src, else
    its last ``depth`` path components (``a/mod.py`` at depth 2 is
    ``a.mod``)."""
    parts = path.resolve().with_suffix("").parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        dotted = ".".join(parts[index:])
        return dotted[:-len(".__init__")] if dotted.endswith(".__init__") \
            else dotted
    return ".".join(parts[-depth:])


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, in sorted order per root —
    the one file-discovery walk both engines share, so findings come
    out in the same deterministic order everywhere."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def load_modules(paths: Sequence[Path]) -> List[ModuleSource]:
    """Parse every file under ``paths`` into :class:`ModuleSource`.

    A file named twice (a directory and a file in it) is parsed once.
    Files outside the ``repro`` package whose stems collide (``a/mod.py``
    and ``b/mod.py``) take more path components until every name is
    unique: the whole-program rule keys modules by name.
    """
    unique: Dict[Path, Path] = {}
    for file in iter_python_files(paths):
        unique.setdefault(file.resolve(), file)
    files = list(unique.values())
    depth = [1] * len(files)
    while True:
        names = [module_name_for(file, d) for file, d in zip(files, depth)]
        counts = Counter(names)
        grow = [i for i, name in enumerate(names) if counts[name] > 1
                and depth[i] < len(files[i].resolve().parts)]
        if not grow:
            break
        for i in grow:
            depth[i] += 1
    return [ModuleSource.parse(file, name)
            for file, name in zip(files, names)]


def apply_suppressions(
        module: ModuleSource, findings: Iterable[Finding],
        used: Optional[Set[Tuple[str, int]]] = None) -> None:
    """Mark findings silenced by ``# snic: ignore`` tags in ``module``.

    ``used`` (when given) collects ``(path, comment_line)`` pairs for
    every tag that actually suppressed something — the complement is
    what ``--stats`` reports as stale.
    """
    for finding in findings:
        match = module.suppression_match(finding.line)
        if match is None:
            continue
        silenced, comment_line = match
        if not silenced or finding.rule in silenced:
            finding.suppressed = True
            if used is not None:
                used.add((str(module.path), comment_line))


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """The one canonical finding order: (path, line, col, rule).

    Every format reports in this order, which is what makes double runs
    byte-identical.
    """
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


class LintEngine:
    """Runs a rule set over files/trees and collects findings: the
    per-module rules over each module, then the whole-program rules
    over all of them."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None \
            else default_rules()
        self.program_rules: List[ProgramRule] = default_program_rules()
        #: (path, comment_line) of every suppression tag that silenced
        #: at least one finding in this engine's lifetime.
        self.used_suppressions: Set[Tuple[str, int]] = set()

    def select(self, rule_ids: Iterable[str]) -> None:
        wanted = {r.upper() for r in rule_ids}
        self.rules = [r for r in self.rules if r.rule_id in wanted]
        self.program_rules = [r for r in self.program_rules
                              if r.rule_id in wanted]

    def lint_modules(self, modules: Sequence[ModuleSource]) -> List[Finding]:
        by_path = {str(module.path): module for module in modules}
        findings: List[Finding] = []
        for module in modules:
            for rule in self.rules:
                findings.extend(rule.check(module))
        for program_rule in self.program_rules:
            findings.extend(program_rule.check_program(modules))
        for finding in findings:
            apply_suppressions(by_path[finding.path], [finding],
                               self.used_suppressions)
        return sort_findings(findings)

    def lint_file(self, path: Path) -> List[Finding]:
        return self.lint_modules(
            [ModuleSource.parse(path, module_name_for(path))])

    def lint_paths(self, paths: Sequence[Path]) -> List[Finding]:
        return self.lint_modules(load_modules(paths))


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------

def _relpath(path: str) -> str:
    try:
        return str(Path(path).resolve().relative_to(Path.cwd()))
    except ValueError:
        return path


def format_text(findings: List[Finding],
                show_suppressed: bool = False) -> str:
    lines: List[str] = []
    active = 0
    for f in findings:
        if not f.active and not show_suppressed:
            continue
        tag = " (suppressed)" if f.suppressed else ""
        lines.append(f"{_relpath(f.path)}:{f.line}:{f.col} "
                     f"{f.rule}{tag} {f.message}")
        if f.hint and f.active:
            lines.append(f"    hint: {f.hint}")
        active += 1 if f.active else 0
    suffix = ""
    if findings:
        n_suppressed = sum(1 for f in findings if f.suppressed)
        suffix = f", {n_suppressed} suppressed"
    lines.append(f"{active} finding(s)" + suffix)
    return "\n".join(lines)


def format_findings_json(findings: List[Finding]) -> str:
    return json.dumps({
        "findings": [asdict(f) for f in findings],
        "n_active": sum(1 for f in findings if f.active),
        "n_suppressed": sum(1 for f in findings if f.suppressed),
    }, indent=2)


def format_github(findings: List[Finding]) -> str:
    """GitHub Actions workflow-command annotations (one per finding)."""
    lines = []
    for f in findings:
        if not f.active:
            continue
        message = f.message + (f" Hint: {f.hint}" if f.hint else "")
        # Workflow commands terminate on newlines; escape per the spec.
        message = message.replace("%", "%25").replace("\n", "%0A")
        lines.append(f"::error file={_relpath(f.path)},line={f.line},"
                     f"col={f.col},title={f.rule}::{message}")
    return "\n".join(lines)


FORMATTERS = {"text": format_text, "json": format_findings_json,
              "github": format_github}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def run_lint(paths: Optional[Sequence[Path]] = None,
             rules: Optional[Sequence[str]] = None,
             ) -> Tuple[List[Finding], int]:
    """Lint ``paths`` (default: the repro package) with the per-module
    and whole-program rules; returns ``(findings, exit_code)`` where the
    exit code counts only active (unsuppressed) findings."""
    engine = LintEngine()
    if rules:
        engine.select(rules)
    findings = engine.lint_paths(list(paths) if paths else [source_root()])
    active = sum(1 for f in findings if not f.suppressed)
    return findings, (1 if active else 0)


# ----------------------------------------------------------------------
# Suppression statistics (``repro lint --stats``)
# ----------------------------------------------------------------------

@dataclass
class SuppressionStats:
    """Per-rule counts plus the stale-suppression audit."""

    active_by_rule: Dict[str, int] = field(default_factory=dict)
    suppressed_by_rule: Dict[str, int] = field(default_factory=dict)
    #: (path, line, tag-rule-list) of suppression comments that
    #: silenced nothing under any rule — stale tags that must go.
    unused: List[Tuple[str, int, str]] = field(default_factory=list)
    n_comments: int = 0


def collect_stats(paths: Optional[Sequence[Path]] = None
                  ) -> Tuple[List[Finding], SuppressionStats]:
    """Run every rule over ``paths`` and audit every suppression tag:
    a tag is used if it silences a finding from any rule, per-module or
    whole-program."""
    modules = load_modules(list(paths) if paths else [source_root()])
    engine = LintEngine()
    findings = engine.lint_modules(modules)
    used = engine.used_suppressions
    by_path = {str(m.path): m for m in modules}

    stats = SuppressionStats()
    for f in findings:
        bucket = stats.suppressed_by_rule if f.suppressed \
            else stats.active_by_rule
        bucket[f.rule] = bucket.get(f.rule, 0) + 1
    for path in sorted(by_path):
        for line, rules in by_path[path].suppression_comments():
            stats.n_comments += 1
            if (path, line) not in used:
                stats.unused.append(
                    (path, line, ",".join(sorted(rules)) or "blanket"))
    return findings, stats


def format_stats(stats: SuppressionStats) -> str:
    lines = ["suppression audit (# snic: ignore tags)", ""]
    rules = sorted(set(stats.active_by_rule) | set(stats.suppressed_by_rule))
    lines.append(f"{'rule':<10} {'active':>7} {'suppressed':>11}")
    for rule in rules:
        lines.append(f"{rule:<10} {stats.active_by_rule.get(rule, 0):>7} "
                     f"{stats.suppressed_by_rule.get(rule, 0):>11}")
    lines.append("")
    lines.append(f"{stats.n_comments} suppression tag(s) in tree, "
                 f"{len(stats.unused)} unused")
    for path, line, rules_text in stats.unused:
        lines.append(f"  UNUSED {_relpath(path)}:{line} "
                     f"# snic: ignore[{rules_text}] — suppresses nothing; "
                     f"delete it or fix the rule list")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="S-NIC-specific static analysis over the simulation "
                    "stack (rule catalog: DESIGN.md §1.5).")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: src/repro)")
    parser.add_argument("--format", choices=sorted(FORMATTERS),
                        default="text")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print suppressed findings (text format)")
    parser.add_argument("--stats", action="store_true",
                        help="per-rule suppression counts + stale-tag "
                             "audit; exits 1 on unused suppressions")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)
    missing = [str(path) for path in args.paths if not path.exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")

    catalog: List[Rule | ProgramRule] = [*default_rules(),
                                         *default_program_rules()]
    if args.list_rules:
        for rule in catalog:
            print(f"{rule.rule_id}  {rule.title}")
            print(f"    rationale: {rule.rationale}")
            print(f"    hint:      {rule.hint}")
        return 0

    if args.stats:
        # The stats gate is the stale-suppression audit alone: active
        # findings are the plain `repro lint` exit code's job.
        _findings, stats = collect_stats(args.paths or None)
        print(format_stats(stats))
        return 1 if stats.unused else 0

    rule_ids = [r.upper() for r in (args.rules or "").split(",") if r] or None
    if rule_ids:
        bad = sorted(set(rule_ids) - {rule.rule_id for rule in catalog})
        if bad:
            # A typo must not pass vacuously (0 rules => 0 findings).
            parser.error(f"unknown rule id(s): {', '.join(bad)}")
    findings, code = run_lint(args.paths or None, rules=rule_ids)
    if args.format == "text":
        print(format_text(findings, show_suppressed=args.show_suppressed))
    else:
        output = FORMATTERS[args.format](findings)
        if output:
            print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
