"""Every demo script runs to completion."""

import pytest

from tests.conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    proc = run_python([str(demo)], timeout=300, tmp_dir=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
