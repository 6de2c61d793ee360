"""Each narrated demo runs to completion in-process and prints its story."""
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_five_demos_found():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_", "05_"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
