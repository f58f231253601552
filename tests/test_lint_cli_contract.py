"""CLI contract for ``python -m repro lint``, per-module rules and the
whole-program rule SNIC010 alike: exit codes (clean=0, findings=1,
usage=2), the three output formats, the suppression round-trip, and
``--stats``.

Driven through ``runpy`` with ``run_name="__main__"`` (like the
examples smoke tests) so the whole ``__main__`` dispatch — argv
parsing, command table, ``sys.exit`` plumbing — is under test, not
just the inner ``main()`` functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path
from typing import List, Tuple
from unittest import mock

import pytest

pytestmark = pytest.mark.no_isosan

REPO_ROOT = Path(__file__).parent.parent
LINT_FIXTURE = Path(__file__).parent / "fixtures" / "lint_violations.py"
DATAFLOW_FIXTURES = Path(__file__).parent / "fixtures" / "dataflow"


def run_cli(*argv: str) -> Tuple[int, str, str]:
    """``python -m repro <argv...>`` in-process; (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["repro", *argv]), \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            runpy.run_module("repro", run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------------
# Exit codes
# ----------------------------------------------------------------------

class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "clean.py").write_text("GREETING = 'hi'\n")
        code, out, _ = run_cli("lint", str(tmp_path))
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_one(self):
        code, out, _ = run_cli("lint", str(LINT_FIXTURE))
        assert code == 1
        assert "SNIC001" in out

    def test_usage_error_exits_two(self):
        code, _, err = run_cli("lint", "--format", "bogus")
        assert code == 2
        assert "invalid choice" in err

    def test_unknown_command_exits_two(self):
        code, _, err = run_cli("frobnicate")
        assert code == 2
        assert "unknown command" in err

    def test_dataflow_findings_exit_one(self):
        code, out, _ = run_cli("lint", str(DATAFLOW_FIXTURES))
        assert code == 1
        assert "SNIC010" in out

    def test_dataflow_usage_error_exits_two(self):
        # The whole-program rules run under `lint`; there is no second
        # front door.
        code, _, err = run_cli("dataflow", "--format", "json")
        assert code == 2
        assert "unknown command" in err

    def test_unknown_rule_id_exits_two(self):
        # A typo'd --rules filter must not pass vacuously.
        code, _, err = run_cli("lint", "--rules", "SNIC999")
        assert code == 2
        assert "SNIC999" in err

    def test_lint_accepts_program_rule_ids(self):
        code, out, _ = run_cli("lint", "--rules", "SNIC010",
                               str(DATAFLOW_FIXTURES))
        assert code == 1
        assert "SNIC010" in out and "SNIC001" not in out

    def test_dataflow_unknown_rule_id_exits_two(self):
        # SNIC009, the deleted whole-program taint rule, is unknown.
        code, _, err = run_cli("lint", "--rules", "SNIC009")
        assert code == 2
        assert "SNIC009" in err

    def test_rule_filter_is_case_insensitive(self):
        code, out, _ = run_cli("lint", "--rules", "snic001",
                               str(LINT_FIXTURE))
        assert code == 1
        assert "SNIC001" in out


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------

class TestFormats:
    def test_text_format_summarises(self):
        code, out, _ = run_cli("lint", "--format", "text",
                               str(LINT_FIXTURE))
        assert code == 1
        assert "finding(s)" in out.splitlines()[-1]

    def test_json_format_parses_with_counts(self):
        _, out, _ = run_cli("lint", "--format", "json",
                            str(LINT_FIXTURE))
        payload = json.loads(out)
        assert payload["n_active"] == len(
            [f for f in payload["findings"] if not f["suppressed"]])
        assert payload["n_active"] > 0

    def test_github_format_emits_error_annotations(self):
        _, out, _ = run_cli("lint", "--format", "github",
                            str(LINT_FIXTURE))
        lines = [ln for ln in out.splitlines() if ln]
        assert lines and all(ln.startswith("::error file=")
                             for ln in lines)

    def test_dataflow_json_format(self):
        _, out, _ = run_cli("lint", "--format", "json",
                            str(DATAFLOW_FIXTURES))
        payload = json.loads(out)
        assert payload["n_active"] == 2
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"SNIC010"}
        assert {f["key"] for f in payload["findings"]} == {
            "state.FLOW_TABLE", "state.SEEN"}

    def test_list_rules_covers_whole_catalog(self):
        code, out, _ = run_cli("lint", "--list-rules")
        assert code == 0
        listed = {line.split()[0] for line in out.splitlines()
                  if line.startswith("SNIC")}
        assert listed == {f"SNIC{n:03d}" for n in (1, 2, 4, 5, 8, 10)}


# ----------------------------------------------------------------------
# Suppression round-trip
# ----------------------------------------------------------------------

VIOLATION = (
    "def peek(memory):\n"
    "    return memory.read(0, 64)\n"
)


class TestSuppressionRoundTrip:
    def test_tag_silences_and_removal_reinstates(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(VIOLATION)
        code, _, _ = run_cli("lint", str(bad))
        assert code == 1

        lines = VIOLATION.splitlines()
        lines.insert(1, "    # snic: ignore[SNIC001] -- test fixture")
        bad.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli("lint", str(bad))
        assert code == 0
        assert "1 suppressed" in out

        bad.write_text(VIOLATION)
        code, _, _ = run_cli("lint", str(bad))
        assert code == 1

    def test_wrong_rule_id_does_not_silence(self, tmp_path):
        bad = tmp_path / "bad.py"
        lines: List[str] = VIOLATION.splitlines()
        lines.insert(1, "    # snic: ignore[SNIC999]")
        bad.write_text("\n".join(lines) + "\n")
        code, _, _ = run_cli("lint", str(bad))
        assert code == 1

    def test_dataflow_suppression_round_trip(self, tmp_path):
        state = tmp_path / "state.py"
        original = (DATAFLOW_FIXTURES / "state.py").read_text()
        state.write_text(original)
        code, _, _ = run_cli("lint", str(tmp_path))
        assert code == 1

        tagged = []
        for line in original.splitlines():
            if line.startswith(("FLOW_TABLE", "SEEN")):
                line += "  # snic: ignore[SNIC010] -- test"
            tagged.append(line)
        state.write_text("\n".join(tagged) + "\n")
        code, out, _ = run_cli("lint", str(tmp_path))
        assert code == 0, out
        assert "2 suppressed" in out
        code, out, _ = run_cli("lint", "--stats", str(tmp_path))
        assert code == 0 and "0 unused" in out, out

        state.write_text(original)
        code, _, _ = run_cli("lint", str(tmp_path))
        assert code == 1


# ----------------------------------------------------------------------
# --stats
# ----------------------------------------------------------------------

class TestStats:
    def test_used_tags_pass(self, tmp_path):
        bad = tmp_path / "bad.py"
        lines = VIOLATION.splitlines()
        lines.insert(1, "    # snic: ignore[SNIC001] -- measured")
        bad.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli("lint", "--stats", str(tmp_path))
        assert code == 0
        assert "0 unused" in out
        assert "SNIC001" in out

    def test_stale_tag_fails_and_is_named(self, tmp_path):
        stale = tmp_path / "stale.py"
        stale.write_text("X = 1  # snic: ignore[SNIC001]\n")
        code, out, _ = run_cli("lint", "--stats", str(tmp_path))
        assert code == 1
        assert "UNUSED" in out and "stale.py:1" in out

    def test_repo_tree_has_no_stale_tags(self):
        code, out, _ = run_cli("lint", "--stats")
        assert code == 0, out
