"""Smoke test: every narrative demo runs to completion in-process."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [d.name for d in DEMOS] == [
        "01_continued_fractions.py",
        "02_cones_and_duality.py",
        "03_zigzag_diagrams.py",
        "04_singularities.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
