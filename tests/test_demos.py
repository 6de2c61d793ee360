"""Each narrated demo runs to completion in-process and prints its story."""
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_five_demos_found():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_", "05_"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


# demo 03's stdout, captured when every rival encoder still ran the oracle on
# its own support: the closed-form rival scores leave every byte in place
DEMO_03_STDOUT = (
    "source: u4, rate 1, D_d = 0.250000, P_d = 0.250000\n"
    "oracle output support: 18 candidate points\n"
    "\n"
    " alpha    P budget       D* (LP)   D predicted         gap\n"
    "  0.00    0.000000    0.50000000    0.50000000   0.000e+00\n"
    "  0.25    0.015625    0.39062500    0.39062500   0.000e+00\n"
    "  0.50    0.062500    0.31250000    0.31250000   0.000e+00\n"
    "  0.75    0.140625    0.26562500    0.26562500   0.000e+00\n"
    "  1.00    0.250000    0.25000000    0.25000000   0.000e+00\n"
    "\n"
    "universality: minimum over every encoder at the same rate\n"
    "  P = 0.000000   mmse-encoder D* = 0.50000000   best rival D* = 0.50000000   rel gap = 0.000e+00\n"
    "  P = 0.125000   mmse-encoder D* = 0.27144661   best rival D* = 0.27144661   rel gap = 0.000e+00\n"
    "  P = 0.250000   mmse-encoder D* = 0.25000000   best rival D* = 0.25000000   rel gap = 0.000e+00\n"
    "assignments enumerated per budget: 16\n"
    "verdict: no encoder beats the MMSE partition\n"
)


def test_demo_03_stdout_pinned(capsys):
    runpy.run_path(str(DEMOS[2]), run_name="__main__")
    assert capsys.readouterr().out == DEMO_03_STDOUT


def test_readme_quick_start(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("alpha,D_measured,P_measured")
