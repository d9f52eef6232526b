"""Harness self-check of the benchmark at reduced sizes.

    python3 perfbench/selfcheck.py

Runs every workload at a reduced size (explode --max-passes 4, chain
--max-passes 10, iso -L 5, 60 queries), once with tracing off and once
traced, and checks that:

* every metric BENCHMARK.json names is emitted, with its unit, and no other;
* the correctness gate passes;
* the six layer self times plus trace.unattributed_s add up to trace.wall_s;
* a deliberately wrong expected digest makes the gate fail.

Prints one line per problem and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run
import tracer
from queries import SETUP_ARGV


def _corrupted(s: run.Spec) -> run.Spec:
    """The same workload expecting a wrong stdout digest."""
    key = " ".join(s.argv or SETUP_ARGV)
    expected = {k: dict(v) for k, v in s.expected.items()}
    digest = expected[key]["sha256"]
    expected[key]["sha256"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    return dataclasses.replace(s, expected=expected)


def check_workload(name: str, e2e: dict, layers: dict) -> list:
    problems = []
    s = run.spec(name, small=True)
    for trace, wanted in ((False, e2e), (True, layers)):
        result = run.measure(s, seed=1, seconds=1, trace=trace)
        got = {metric: v["unit"] for metric, v in result["metrics"].items()}
        if got != wanted:
            problems.append(f"{name} trace={int(trace)}: metrics {sorted(got.items())} "
                            f"!= {sorted(wanted.items())}")
        if not result["correct"] or result["failed"]:
            problems.append(f"{name} trace={int(trace)}: gate failed: {result}")
        if trace:
            values = {metric: v["value"] for metric, v in result["metrics"].items()}
            parts = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
            parts += values["trace.unattributed_s"]
            if not math.isclose(parts, values["trace.wall_s"], rel_tol=1e-9):
                problems.append(f"{name}: layer self times + unattributed = {parts}, "
                                f"traced wall = {values['trace.wall_s']}")
    print(f"{name}: expecting gate failures from a wrong expected digest")
    result = run.measure(_corrupted(s), seed=1, seconds=1, trace=False)
    if result["correct"] or result["failed"] == 0:
        problems.append(f"{name}: a wrong expected digest passed the gate")
    return problems


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    run.build()
    problems = []
    for name in run.WORKLOADS:
        problems += check_workload(name, e2e, layers)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
