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
