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
]

#: Commands without a ``--quick`` flag.
_NO_QUICK = {"sanitize", "trace"}


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
