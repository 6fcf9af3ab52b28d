"""The benchmark harness in ``perfbench/`` wraps functions of ``tuning``,
``preprocess``, ``persist`` and other modules by name, so a rename there
would break the traced benchmark. Its toy-size self-check runs here."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
