"""``python -m repro dataflow`` — the whole-program analysis CLI.

Runs the SNIC009/SNIC010 program rules over a source tree (default:
``src/repro``), applies ``# snic: ignore[...]`` suppressions and the
committed baseline, and prints findings in the shared lint formats.

Baseline contract: ``DATAFLOW_BASELINE.json`` at the repo root holds
fingerprinted pre-existing findings (``(rule, key)`` pairs — qualnames,
not line numbers, so ordinary edits don't invalidate entries), each
with a mandatory justification string.  Baselined findings appear in
JSON output (flagged) but do not affect the exit code; *new* findings
do.  ``--write-baseline`` regenerates the file from the current
findings with TODO justifications to fill in.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import (
    FORMATTERS,
    Finding,
    ModuleSource,
    ProgramRule,
    apply_suppressions,
    default_program_rules,
    format_text,
    load_modules,
    sort_findings,
    source_root,
)

BASELINE_SCHEMA = "repro.dataflow-baseline"
BASELINE_VERSION = 1
BASELINE_NAME = "DATAFLOW_BASELINE.json"


def default_baseline_path() -> Path:
    """``DATAFLOW_BASELINE.json`` at the checkout root (cwd-independent)."""
    return source_root().parent.parent / BASELINE_NAME


def load_baseline(path: Path) -> Dict[Tuple[str, str], str]:
    """(rule, key) -> justification for every baseline entry."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"{path}: not a {BASELINE_SCHEMA} file")
    entries: Dict[Tuple[str, str], str] = {}
    for entry in data.get("entries", []):
        entries[(entry["rule"], entry["key"])] = \
            entry.get("justification", "")
    return entries


def write_baseline(findings: Sequence[Finding], path: Path) -> Path:
    entries = [
        {"rule": f.rule, "key": f.key,
         "justification": "TODO: justify or fix"}
        for f in sorted(findings, key=lambda f: (f.rule, f.key))
        if not f.suppressed
    ]
    payload = {
        "schema": BASELINE_SCHEMA,
        "version": BASELINE_VERSION,
        "entries": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
    return Path(path)


def apply_baseline(findings: Sequence[Finding],
                   baseline: Dict[Tuple[str, str], str]) -> None:
    for finding in findings:
        if not finding.suppressed and \
                (finding.rule, finding.key) in baseline:
            finding.baselined = True


def run_program_rules(
        modules: Sequence[ModuleSource],
        rules: Optional[Sequence[ProgramRule]] = None,
        used: Optional[Set[Tuple[str, int]]] = None) -> List[Finding]:
    """Run the whole-program rules; apply comment suppressions only.

    ``used`` collects (path, comment line) pairs of consumed
    suppression tags — shared with ``repro lint --stats``.
    """
    by_path = {str(module.path): module for module in modules}
    findings: List[Finding] = []
    for rule in (list(rules) if rules is not None
                 else default_program_rules()):
        findings.extend(rule.check_program(modules))
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None:
            apply_suppressions(module, [finding], used)
    return sort_findings(findings)


def run_dataflow(
        paths: Optional[Sequence[Path]] = None,
        rule_ids: Optional[Sequence[str]] = None,
        baseline_path: Optional[Path] = None,
) -> Tuple[List[Finding], int]:
    """Analyse ``paths`` (default: the repro package).

    Returns ``(findings, exit_code)``; the exit code counts findings
    that are neither suppressed nor baselined.
    """
    modules = load_modules(list(paths) if paths else [source_root()])
    rules: List[ProgramRule] = default_program_rules()
    if rule_ids:
        wanted = {r.upper() for r in rule_ids}
        rules = [r for r in rules if r.rule_id in wanted]
    findings = run_program_rules(modules, rules=rules)
    if baseline_path is not None and Path(baseline_path).exists():
        apply_baseline(findings, load_baseline(Path(baseline_path)))
    active = sum(1 for f in findings if f.active)
    return findings, (1 if active else 0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro dataflow",
        description="Whole-program dataflow analysis: cross-tenant "
                    "taint (SNIC009) and module-level state outside the "
                    "cell state (SNIC010) over the simulation stack "
                    "(DESIGN.md §1.10).")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: src/repro)")
    parser.add_argument("--format", choices=sorted(FORMATTERS),
                        default="text")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids (default: all)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print suppressed/baselined findings "
                             "(text format)")
    parser.add_argument("--baseline", type=Path, default=None,
                        metavar="PATH",
                        help=f"baseline file (default: {BASELINE_NAME} "
                             "at the repo root, when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", type=Path, default=None,
                        metavar="PATH",
                        help="write current unsuppressed findings as a "
                             "fresh baseline and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the program-rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_program_rules():
            print(f"{rule.rule_id}  {rule.title}")
            print(f"    rationale: {rule.rationale}")
            print(f"    hint:      {rule.hint}")
        return 0

    baseline_path: Optional[Path]
    if args.no_baseline:
        baseline_path = None
    elif args.baseline is not None:
        baseline_path = args.baseline
    else:
        candidate = default_baseline_path()
        baseline_path = candidate if candidate.exists() else None

    rule_ids = [r.upper() for r in (args.rules or "").split(",") if r] or None
    if rule_ids:
        known = {rule.rule_id for rule in default_program_rules()}
        bad = sorted(set(rule_ids) - known)
        if bad:
            # A typo must not pass vacuously (0 rules => 0 findings).
            parser.error(f"unknown rule id(s): {', '.join(bad)}")
    roots = [Path(p) for p in args.paths] or None

    if args.write_baseline is not None:
        findings, _ = run_dataflow(roots, rule_ids=rule_ids,
                                   baseline_path=None)
        out = write_baseline(findings, args.write_baseline)
        kept = sum(1 for f in findings if not f.suppressed)
        print(f"wrote {out}: {kept} baseline entr"
              f"{'y' if kept == 1 else 'ies'} "
              "(fill in the justifications)")
        return 0

    findings, code = run_dataflow(roots, rule_ids=rule_ids,
                                  baseline_path=baseline_path)

    if args.format == "text":
        print(format_text(findings,
                          show_suppressed=args.show_suppressed))
    else:
        output = FORMATTERS[args.format](findings)
        if output:
            print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
