"""Byte identity of CLI outputs: the digests of ``tests/output_digests.py``
equal the committed manifest, in-process and as ``python -m movierev.cli``
processes."""

import json

from tests import output_digests
from tests.conftest import run_python

# run as processes, through the entry point of the ``movierev`` command
PROCESS_COMMANDS = ("train-forest", "evaluate-forest", "predict-forest")


def test_every_output_matches_the_manifest(tmp_path):
    expected = json.loads(output_digests.MANIFEST.read_text())
    got = output_digests.digests(tmp_path)
    moved = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not moved, f"{len(moved)} of {len(expected)} digests differ: {moved[:20]}"


def as_a_process(argv):
    proc = run_python(["-m", "movierev.cli", *argv], timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_command_processes_match_the_manifest(tmp_path):
    expected = json.loads(output_digests.MANIFEST.read_text())
    got = output_digests.digests(tmp_path, seeds=(101,), names=PROCESS_COMMANDS, run=as_a_process)
    ran = {f"101/{name}/{stream}" for name in PROCESS_COMMANDS
           for stream in ("stdout", "stderr", "exit")}
    assert ran | {"101/forest.mrp.json", "101/forest.eval.report.json"} <= got.keys()
    moved = sorted(k for k in got if expected.get(k) != got[k])
    assert not moved, f"{len(moved)} of {len(got)} digests differ: {moved}"
