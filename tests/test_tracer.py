"""The benchmark's traced launches: perfbench/tracer.py counts what it
reads from kbgb's return values and arguments, so a change to those
records must keep its counts alive."""

import json
import subprocess
import sys

import pytest

from helpers import ROOT, child_env


@pytest.mark.parametrize("argv, counted", [
    (["lockstep", "tests/corpus/aba_b.pres"], ["rewriting.pairs", "ncpoly.records"]),
    (["iso-check", "tests/corpus/commuting2.pres", "-L", "3"], ["correspondence.iso.words"]),
], ids=["lockstep", "iso-check"])
def test_traced_launch_counts(tmp_path, argv, counted):
    snapshot = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, "perfbench/tracer.py", str(snapshot), *argv],
                          cwd=ROOT, capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(snapshot.read_text())["counts"]
    assert all(counts.get(name, 0) > 0 for name in counted), counts
