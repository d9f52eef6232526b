"""The benchmark's correctness gate, run as tests.

Every entry of perfbench/expected.json is a CLI launch with its recorded
exit code, ``VERDICT:`` line, stdout sha256 and byte count; the queries
workload rebuilds the completed S5 rules by reading back the printed
``final rule:`` text and checks its answers. A library change that breaks
the benchmark fails here, not only in a benchmark run.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from helpers import ROOT, child_env

EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_cli_launch_matches_expected(key):
    proc = subprocess.run([sys.executable, "-m", "kbgb", *key.split()], cwd=ROOT,
                          capture_output=True, env=child_env())
    want = EXPECTED[key]
    lines = proc.stdout.decode().splitlines()
    assert proc.returncode == want["exit"], proc.stderr
    assert lines[-1] == want["verdict"]
    assert hashlib.sha256(proc.stdout).hexdigest() == want["sha256"]
    if "bytes" in want:
        assert len(proc.stdout) == want["bytes"]


def test_queries_gate(tmp_path):
    out = tmp_path / "queries.json"
    proc = subprocess.run([sys.executable, "perfbench/queries.py", "--seed", "1",
                           "--count", "30", "--out", str(out)],
                          cwd=ROOT, capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert (record["failures"], record["attempted"]) == ([], 30)
    assert record["setup"] == EXPECTED["lockstep perfbench/inputs/s5.pres"]
