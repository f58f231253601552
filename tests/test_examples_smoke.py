"""Smoke test: every ``examples/*.py`` main path runs to completion.

The examples are documentation that executes; a refactor that breaks
one breaks the README's promises.  Each script runs via ``runpy`` with
``run_name="__main__"`` so its ``if __name__ == "__main__":`` block
fires, stdout captured.  IsoSan is opted out: the attack demo
*demonstrates* commodity isolation violations on purpose, and the
examples manage their own process-global state end to end.
"""

from __future__ import annotations

import contextlib
import io
import runpy
from pathlib import Path

import pytest

from repro.obs.bench import cell_scope

pytestmark = pytest.mark.no_isosan

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path: Path, tmp_path, monkeypatch):
    # Run from a scratch directory so examples that write artifacts
    # (traces, reports) don't litter the repo root.
    monkeypatch.chdir(tmp_path)
    buffer = io.StringIO()
    with cell_scope(), contextlib.redirect_stdout(buffer):
        runpy.run_path(str(path), run_name="__main__")
    assert buffer.getvalue().strip(), f"{path.name} printed nothing"
