"""Byte identity of CLI outputs: the digests of ``tests/output_digests.py``
equal the committed manifest."""

import json

from tests import output_digests


def test_every_output_matches_the_manifest(tmp_path):
    expected = json.loads(output_digests.MANIFEST.read_text())
    got = output_digests.digests(tmp_path)
    moved = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not moved, f"{len(moved)} of {len(expected)} digests differ: {moved[:20]}"
