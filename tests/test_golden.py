"""Byte identity of the CLI's outputs: every command of the golden manifest
gives the exit code and the SHA-256 of stdout, stderr and each written
file that ``tests/golden/manifest.json`` holds.

A change that moves an output on purpose regenerates the manifest with
``python tests/golden/regenerate.py``, and the manifest's diff names the
commands that moved."""

import json

from golden.regenerate import MANIFEST, collect, differences


def test_every_output_matches_the_manifest():
    lines = differences(collect(), json.loads(MANIFEST.read_text())["commands"])
    assert lines == [], "outputs differ from tests/golden/manifest.json:\n" + "\n".join(lines)
