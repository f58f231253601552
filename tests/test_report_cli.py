"""Smoke tests for the report module and the CLI entry point."""

import subprocess
import sys

import pytest


class TestCLI:
    def test_info(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro"], capture_output=True, text=True
        )
        assert completed.returncode == 0
        assert "S-NIC" in completed.stdout
        assert "subpackages" in completed.stdout

    def test_unknown_command(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "bogus"],
            capture_output=True, text=True,
        )
        assert completed.returncode == 2
        assert "unknown command" in completed.stderr


#: (command, flag, bad value): every count or size that must be >= 1.
_BAD_SIZES = [
    ("slo", "--tenants", "0"),
    ("slo", "--tenants", "-3"),
    ("slo", "--window-ns", "0"),
    ("slo", "--window-ns", "-5"),
    ("slo", "--shards", "0"),
    ("matrix", "--shards", "0"),
    ("matrix", "--reps", "0"),
    ("matrix", "--reps", "-1"),
    ("bench", "--shards", "0"),
    ("sanitize", "--packets", "-2"),
    ("trace", "-n", "0"),
    ("trace", "-n", "-1"),
    ("postmortem", "--tail", "0"),
    ("postmortem", "--tail", "-2"),
]

#: Commands without a ``--quick`` flag.
_NO_QUICK = {"postmortem", "sanitize", "trace"}


class TestBadSizes:
    @pytest.mark.parametrize("command,flag,value", _BAD_SIZES)
    def test_bad_size_is_a_usage_error(self, command, flag, value,
                                       capsys):
        from repro.__main__ import main

        argv = ["repro", command, flag, value]
        if command not in _NO_QUICK:
            argv.insert(2, "--quick")
        if flag == "--window-ns":
            argv += ["--tenants", "2"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        shown = "-n/--packets" if flag == "-n" else flag
        assert err.splitlines()[-1].endswith(
            f"error: argument {shown}: must be >= 1, got {value}")


class TestReport:
    def test_report_runs_and_mentions_headlines(self, capsys):
        from repro.report import main

        main()
        out = capsys.readouterr().out
        assert "8.89%" in out          # paper's area headline
        assert "reproduced" in out
        assert "attacks" in out.lower()
        assert "watermark" in out.lower()


class TestArbiterList:
    def test_repeated_arbiter_is_a_usage_error(self, tmp_path, capsys):
        from repro.__main__ import main

        export = tmp_path / "slo.om"
        code = main(["repro", "slo", "--quick", "--tenants", "2",
                     "--arbiters", "fcfs,temporal,fcfs",
                     "--openmetrics", str(export)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: repeated arbiter(s) ['fcfs']" in err
        assert "Traceback" not in err
        assert not export.exists()


class TestReadmeCommands:
    def test_audit_markdown_out_runs_as_documented(self, tmp_path,
                                                   monkeypatch):
        from pathlib import Path

        from repro.__main__ import main

        readme = Path(__file__).resolve().parent.parent / "README.md"
        prefix = "PYTHONPATH=src python -m repro "
        (line,) = [line for line in readme.read_text().splitlines()
                   if line.startswith(prefix + "audit --format markdown")]
        argv = line[len(prefix):].split()
        assert argv[-2:] == ["-o", "scorecard.md"]
        monkeypatch.chdir(tmp_path)
        assert main(["repro", *argv]) == 0
        text = (tmp_path / "scorecard.md").read_text()
        assert text.startswith("# repro audit: isolation scorecard\n")


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", *argv],
                          capture_output=True, text=True)


def _assert_usage_error(completed: subprocess.CompletedProcess) -> None:
    """Exit 2 with one ``error:`` line: never the exit 1 a command
    keeps for a failed check, and never a traceback."""
    assert completed.returncode == 2
    assert "Traceback" not in completed.stderr
    errors = [line for line in completed.stderr.splitlines()
              if "error:" in line]
    assert len(errors) == 1, completed.stderr


class TestUnreadableInput:
    @pytest.mark.parametrize("argv", [
        ["MISSING.json", "--verify"],
        ["empty.json", "--diff", "MISSING.json"],
        ["not_json.txt"],
        ["list.json", "--verify"],
    ], ids=["verify-missing", "diff-missing", "not-json", "not-an-object"])
    def test_postmortem_bad_bundle_is_a_usage_error(self, tmp_path, argv):
        (tmp_path / "empty.json").write_text("{}")
        (tmp_path / "not_json.txt").write_text("not json\n")
        (tmp_path / "list.json").write_text("[]")
        paths = [arg if arg.startswith("--") else str(tmp_path / arg)
                 for arg in argv]
        _assert_usage_error(_run_module("repro", "postmortem", *paths))

    @pytest.mark.parametrize("argv", [
        ["repro", "bench", "--compare", "{missing}", "{missing}"],
        ["repro", "bench", "--compare", "{not_json}", "{not_json}"],
        ["repro.obs.openmetrics", "{missing}"],
        ["repro", "lint", "{missing}"],
    ], ids=["bench-compare", "bench-compare-not-json", "openmetrics",
            "lint"])
    def test_missing_input_is_a_usage_error(self, tmp_path, argv):
        not_json = tmp_path / "BENCH_x.json"
        not_json.write_text("not json\n")
        paths = {"missing": str(tmp_path / "MISSING"),
                 "not_json": str(not_json)}
        completed = _run_module(*[arg.format(**paths) for arg in argv])
        _assert_usage_error(completed)
        assert argv[-1].format(**paths) in completed.stderr


class TestChaosKinds:
    def test_matrix_with_kind_is_a_usage_error(self, capsys):
        from repro.faults.chaos import main

        with pytest.raises(SystemExit) as exc:
            main(["--quick", "--matrix", "--kind", "bus_babble"])
        assert exc.value.code == 2
        assert "not allowed with argument --matrix" in capsys.readouterr().err

    def test_run_chaos_rejects_matrix_with_kinds(self):
        from repro.faults.chaos import run_chaos

        with pytest.raises(ValueError, match="matrix"):
            run_chaos(quick=True, matrix=True, kinds=["bus_babble"])

    def test_repeated_kind_is_a_usage_error(self, tmp_path, capsys):
        from repro.faults.chaos import main

        bundles = tmp_path / "bundles"
        with pytest.raises(SystemExit) as exc:
            main(["--quick", "--kind", "bus_babble", "--kind", "bus_babble",
                  "--postmortem-dir", str(bundles)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: repeated --kind ['bus_babble']" in err
        assert not bundles.exists()
