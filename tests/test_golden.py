"""Byte identity of the CLI's outputs: every command of the golden manifest
gives the exit code and the SHA-256 of stdout, stderr and each written
file that ``tests/golden/manifest.json`` holds.

The commands run once, in one child interpreter, and each is a test case
of its own, so a failure names the command (``-k export`` selects the
trajectory exports). A change that moves an output on purpose regenerates
the manifest with ``python tests/golden/regenerate.py``, and the
manifest's diff names the commands that moved."""

import json

import pytest

from golden.regenerate import COMMANDS, MANIFEST, collect, differences

PINNED = json.loads(MANIFEST.read_text())["commands"]


@pytest.fixture(scope="module")
def records():
    return collect()


def test_every_output_matches_the_manifest(records):
    lines = differences(records, PINNED)
    assert lines == [], "outputs differ from tests/golden/manifest.json:\n" + "\n".join(lines)


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_matches_its_record(records, name):
    got = [record for record in records if record["name"] == name]
    want = [entry for entry in PINNED if entry["name"] == name]
    assert differences(got, want) == []


def test_differences_name_each_file_that_moved():
    pinned = {"name": "c", "argv": ["x"], "exit": 0, "stdout": "s", "stderr": "e",
              "files": {"a.csv": "1", "a.csv.meta.json": "2", "gone.csv": "3"}}
    moved = dict(pinned, stdout="t", files={"a.csv": "9", "a.csv.meta.json": "2", "new.csv": "4"})
    assert differences([moved], [pinned]) == [
        "c: stdout differs, file a.csv differs, file gone.csv is missing, file new.csv is new"]
    assert differences([pinned, dict(pinned, name="d")], [pinned, dict(pinned, name="e")]) == [
        "e: no longer run", "d: not in the manifest"]
    assert differences([pinned], [pinned]) == []
