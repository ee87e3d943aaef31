"""Each narrative script under demos/ runs to its end.

The demos run from the repository root, as the README says, with the test
extra's scipy hidden: the library's runtime dependency is numpy alone. A
demo that still calls a name the package no longer has fails here.
"""

import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.chdir(ROOT)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
